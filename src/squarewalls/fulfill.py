"""Fulfillability of labeled square complexes by relator words.

An abstract complex fixes, for every face, a relator label, a starting slot
and an orientation; a tuple of words (one per label) fulfills it when every
face can read its word around its attaching walk so that each edge receives a
single consistent letter and no edge sees the same (label, position) twice
(local injectivity).

Slot j of a face with start s and orientation o reads relator position
k = (o * (j - s)) mod 4; the letter imposed on the slot's edge is
word[k] ** (step direction * o).

Label bookkeeping follows the descending-multiplicity order: labels are
ranked by (-multiplicity, label), an edge's incidences are compared by
(rank, position), and every incidence except the minimal one "belongs" to
its face. delta(face) counts belonging incidences, kappa_i is the maximum
delta over label-i faces, and sum_f delta(f) equals Cancel(Y) whenever the
complex has no bare edges.

A complex is read in two compiled forms, neither of which depends on the
relator words, each built on first use and kept with the complex:

- AbstractComplex.requirements, the letter equalities as one int: for each
  edge, its first incidence against every later one, one bit per
  (rank, position, rank, position, relative sign). Every class of a scan
  compiles it.
- AbstractComplex.constraints, the table the search kernel walks: the
  canonical label order, each label's (edge position, relator position,
  sign) triples, and the edge ids by position. Only the classes the kernel
  searches or counts compile it.

tuple_filter turns a relator list into one bitset over its word tuples per
requirement bit, so that the tuples fulfilling a complex are the AND over
its requirement bits. A scan then searches only the classes that some tuple
fulfills, and _consistent_prefixes stays the one kernel that writes
witnesses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .complexes import SquareComplex, cancellation
from .presentation import (
    Word,
    enumerate_cyclically_reduced,
    relator_count,
    w_count,
)


class FulfillError(ValueError):
    pass


class InfeasibleError(RuntimeError):
    pass


ENUMERATION_GUARD = 10_000_000  # largest word-tuple space the exact counts enumerate
SUBSET_GUARD = 2_000_000  # most relator subsets the exact set-level count enumerates
# largest word-tuple space len(R) ** n_labels that tuple_filter decides with
# bitsets; above it the kernel searches every class. Set by measurement (see
# tuple_filter).
TUPLE_BOUND = 1 << 16


@dataclass(frozen=True)
class AbstractComplex:
    """SquareComplex whose faces all carry labels 1..n_labels plus reading
    decorations (start slot, orientation)."""

    # no instance __dict__: base and n_labels are the fields, and the other
    # three slots keep .cancel, .requirements and .constraints once read.
    # They are not fields, so equality, hashing and repr never see them.
    __slots__ = ("base", "n_labels", "_cancel", "_requirements", "_constraints")

    base: SquareComplex
    n_labels: int

    def __post_init__(self):
        seen = set()
        for fid, f in self.base.faces.items():
            if not isinstance(f.label, int) or not 1 <= f.label <= self.n_labels:
                raise FulfillError(f"face {self.base.names.faces[fid]!r} label "
                                   f"{f.label!r} out of range")
            seen.add(f.label)
        if seen != set(range(1, self.n_labels + 1)):
            raise FulfillError("every label in 1..n_labels must be used")

    @classmethod
    def wrap(cls, cx: SquareComplex) -> "AbstractComplex":
        labels = {f.label for f in cx.faces.values()}
        if not labels or None in labels:
            raise FulfillError("all faces need integer labels")
        return cls(cx, max(labels))

    def __reduce__(self):
        # copy and pickle rebuild from the fields: a frozen class refuses the
        # setattr that restoring slot state would need, and the caches refill
        return (AbstractComplex, (self.base, self.n_labels))

    def label_order(self) -> list[int]:
        """Labels sorted by descending multiplicity, ties by label."""
        mult: dict = {}
        for f in self.base.faces.values():
            mult[f.label] = mult.get(f.label, 0) + 1
        return sorted(mult, key=lambda i: (-mult[i], i))

    @property
    def constraints(self):
        """The compiled constraint table (see _constraint_table), built on
        first use and kept in its slot. The table is tuples of ints and ids,
        which the garbage collector stops tracking."""
        try:
            return self._constraints
        except AttributeError:
            table = _constraint_table(self)
            object.__setattr__(self, "_constraints", table)
            return table

    @property
    def requirements(self) -> int | None:
        """The requirement mask (see _requirement_mask), built on first use
        and kept in its slot."""
        try:
            return self._requirements
        except AttributeError:
            mask = _requirement_mask(self)
            object.__setattr__(self, "_requirements", mask)
            return mask

    @property
    def cancel(self) -> int:
        """Cancel(Y) over every edge, bare edges included; computed once."""
        try:
            return self._cancel
        except AttributeError:
            can = cancellation(self.base)
            object.__setattr__(self, "_cancel", can)
            return can

    def slot_incidences(self) -> dict:
        """edge -> list of (face id, slot, position, sign, label), sorted."""
        out: dict = {}
        for fid, f in self.base.faces.items():
            for j, st in enumerate(f.walk):
                k = f.position_of_slot(j)
                out.setdefault(st.edge, []).append((fid, j, k, st.dir * f.orient, f.label))
        return out

    def to_json(self) -> str:
        return self.base.to_json()

    @classmethod
    def from_json(cls, s: str) -> "AbstractComplex":
        return cls.wrap(SquareComplex.from_json(s))


@dataclass(frozen=True)
class FulfillStats:
    labels: tuple[int, ...]  # canonical descending-multiplicity order
    m: tuple[int, ...]  # multiplicities, aligned with labels
    kappa: tuple[int, ...]  # aligned with labels
    delta: dict  # face id -> belonging-incidence count
    cancel: int


@dataclass(frozen=True)
class FulfillAssignment:
    words: dict  # label -> Word
    edge_letters: dict  # edge id -> letter


def kappa(Y: AbstractComplex) -> FulfillStats:
    """Belongs-to statistics; rejects edges with duplicate (label, position)
    incidences, which no locally injective map can realize."""
    order = Y.label_order()
    rank = {lab: i for i, lab in enumerate(order)}
    delta = {fid: 0 for fid in Y.base.faces}
    for edge, inc in Y.slot_incidences().items():
        keys = [((rank[lab], k), fid) for fid, _j, k, _s, lab in inc]
        pairs = [key for key, _fid in keys]
        if len(set(pairs)) != len(pairs):
            raise FulfillError(f"edge {Y.base.names.edges[edge]!r} repeats a "
                              f"(label, position) incidence")
        if len(keys) < 2:
            continue
        lo = min(pairs)
        first = True
        for key, fid in sorted(keys, key=lambda kf: kf[0]):
            if first and key == lo:
                first = False
                continue
            delta[fid] += 1
    mult = Counter(f.label for f in Y.base.faces.values())
    kap = []
    for lab in order:
        kap.append(max(delta[fid] for fid, f in Y.base.faces.items() if f.label == lab))
    return FulfillStats(
        labels=tuple(order),
        m=tuple(mult[lab] for lab in order),
        kappa=tuple(kap),
        delta=delta,
        cancel=Y.cancel,
    )


# one tuple per distinct label order and constraint triple, and one int per
# distinct requirement mask, shared by every complex: a corpus then holds a
# few new objects per table, not one per slot. All are tuples of small ints
# or ints, bounded by the largest complex seen.
_SHARED: dict = {}


def _requirement_mask(Y: AbstractComplex) -> int | None:
    """Y's letter equalities as one int, or None when Y is not locally
    injective. Label slot a = 4 * rank + position (rank in the canonical
    label order) reads letter word[position] ** sign; every later incidence
    (a, s) of an edge whose first incidence is (a0, s0) sets bit
    2 * (a0 * 4n + a) + (s != s0), which asks word tuples for
    word[a0] == word[a] ** (s0 * s). The layout depends only on n = n_labels:
    a 2-label mask fits in 128 bits."""
    rank = {lab: 4 * i for i, lab in enumerate(Y.label_order())}
    width = 4 * len(rank)
    first: dict = {}
    seen = set()
    mask = 0
    for f in Y.base.faces.values():
        base, start, orient = rank[f.label], f.start, f.orient
        for j, st in enumerate(f.walk):
            a = base + (orient * (j - start)) % 4
            s = st.dir * orient
            if (st.edge, a) in seen:
                return None
            seen.add((st.edge, a))
            head = first.get(st.edge)
            if head is None:
                first[st.edge] = (a, s)
            else:
                mask |= 1 << (2 * (head[0] * width + a) + (head[1] != s))
    return _SHARED.setdefault(mask, mask)


def _constraint_table(Y: AbstractComplex):
    """(label order, per-label constraints, edge ids) for the kernel, or None
    when Y is not locally injective. Labels come in canonical order; each
    label's constraints are (edge position, relator position, sign) triples,
    and edge ids are indexed by position. One pass over the faces: no
    constraint order is imposed, because the kernel's answers (prefixes,
    first witness, counts) do not depend on it."""
    order = tuple(Y.label_order())
    order = _SHARED.setdefault(order, order)
    cons: dict = {lab: [] for lab in order}
    position: dict = {}
    seen = set()
    for f in Y.base.faces.values():
        lab, start, orient = f.label, f.start, f.orient
        here = cons[lab]
        for j, st in enumerate(f.walk):
            e = position.setdefault(st.edge, len(position))
            k = (orient * (j - start)) % 4
            if (e, lab, k) in seen:
                return None
            seen.add((e, lab, k))
            t = (e, k, st.dir * orient)
            here.append(_SHARED.setdefault(t, t))
    return order, tuple(tuple(cons[lab]) for lab in order), tuple(position)


def _consistent_prefixes(table, W):
    """Depth-first over word choices, labels in the table's order and words
    in W order: yields (prefix, letters) for every prefix of word indices
    whose induced edge letters agree, the empty prefix first. letters is the
    live list of letters by edge position (None while unset), valid until the
    generator resumes."""
    _order, cons, edges = table
    letters: list = [None] * len(edges)

    def rec(prefix: tuple):
        yield prefix, letters
        if len(prefix) == len(cons):
            return
        here = cons[len(prefix)]
        for wi, w in enumerate(W):
            trail = []
            for e, k, s in here:
                lt = w[k] if s == 1 else -w[k]
                have = letters[e]
                if have is None:
                    letters[e] = lt
                    trail.append(e)
                elif have != lt:
                    break
            else:
                yield from rec(prefix + (wi,))
            for e in trail:
                letters[e] = None

    return rec(())


def fulfill_search(Y: AbstractComplex, R: list[Word]) -> FulfillAssignment | None:
    """Backtracking search for a label -> word assignment (repetition across
    labels allowed) whose induced edge letters are consistent.

    Deterministic: labels are tried in canonical order, candidate words in R
    order. Returns None when the complex itself is not locally injective.
    """
    if not R:
        return None
    table = Y.constraints
    if table is None:
        return None
    order, _cons, edges = table
    for prefix, letters in _consistent_prefixes(table, R):
        if len(prefix) == len(order):
            return FulfillAssignment(
                words={lab: R[wi] for lab, wi in zip(order, prefix)},
                edge_letters=dict(zip(edges, letters)))
    return None


def tuple_filter(R: list[Word]):
    """Y -> the word tuples over R that fulfill Y, as a bitset, or None when
    len(R) ** Y.n_labels exceeds TUPLE_BOUND. Bit i stands for the i-th
    tuple of range(len(R)) ** n in lexicographic order, so the least set bit
    is the tuple fulfill_search returns: every prefix of a fulfilling tuple
    is consistent, so the depth-first search meets the least one first.

    Per label count n, each requirement bit is decided once for all tuples,
    as the OR over letters x of (tuples whose word at slot a reads x) AND
    (tuples whose word at slot b reads x ** sign).

    TUPLE_BOUND bounds memory, not time. On the classes of
    EnumerationCursor(3, 10, 200), by label count, the filter beat the
    kernel at every size measured: 0.4-1.9 us a class against 2.4-540 us
    from 3 to 16 384 tuples, and 18 us against 1.6 ms at 65 536 (2 labels,
    256 words). At 2 ** 16 tuples a bitset is 8 KB, so one label count's
    table (at most 32 n^2 requirement bits, filled on demand) stays within
    32 n^2 * 8 KB."""
    if not R:
        return lambda Y: 0
    # per label count n: (bitset by requirement bit, filled on demand,
    # _slot_letters(R, n), the bitset of every tuple)
    tables: dict = {}

    def fulfilling(Y: AbstractComplex) -> int | None:
        mask = Y.requirements
        if mask is None:
            return 0
        n = Y.n_labels
        table = tables.get(n)
        if table is None:
            if len(R) ** n > TUPLE_BOUND:
                return None
            table = tables[n] = ({}, _slot_letters(R, n), (1 << len(R) ** n) - 1)
        bits, reads, got = table
        while mask and got:
            low = mask & -mask
            mask ^= low
            bit = low.bit_length() - 1
            tuples = bits.get(bit)
            if tuples is None:
                pair, neg = divmod(bit, 2)
                a, b = divmod(pair, 4 * n)
                sign, at_b = (-1 if neg else 1), reads[b]
                tuples = 0
                for x, at_a in reads[a].items():
                    tuples |= at_a & at_b.get(sign * x, 0)
                bits[bit] = tuples
            got &= tuples
        return got

    return fulfilling


def _slot_letters(R: list[Word], n: int) -> list:
    """Per label slot a = 4 * rank + position, letter -> the bitset of the
    n-tuples over R whose word at that rank reads the letter there."""
    size = len(R)
    out = []
    for rank in range(n):
        stride = size ** (n - 1 - rank)  # tuples sharing the word at this rank
        period = stride * size
        # one bit every period bits, size ** rank times
        comb = ((1 << (period * size ** rank)) - 1) // ((1 << period) - 1)
        at = [comb * (((1 << stride) - 1) << (w * stride)) for w in range(size)]
        for k in range(4):
            letters: dict = {}
            for w, word in enumerate(R):
                letters[word[k]] = letters.get(word[k], 0) | at[w]
            out.append(letters)
    return out


def least_tuple(tuples: int, R: list[Word], n: int) -> tuple:
    """The words, in label order, of the least n-tuple in a nonzero
    tuple_filter bitset over R."""
    i = (tuples & -tuples).bit_length() - 1
    out = []
    for _ in range(n):
        i, w = divmod(i, len(R))
        out.append(R[w])
    return tuple(reversed(out))


def check_assignment(Y: AbstractComplex, asg: FulfillAssignment) -> bool:
    """Full revalidation of a search witness from scratch: Y must be
    locally injective, and each edge must get one letter."""
    if set(asg.words) != set(Y.label_order()):
        return False
    letters: dict = {}
    for edge, inc in Y.slot_incidences().items():
        pairs = [(lab, k) for _fid, _j, k, _s, lab in inc]
        if len(set(pairs)) != len(pairs):
            return False
        for _fid, _j, k, s, lab in inc:
            w = asg.words[lab]
            lt = w[k] if s == 1 else -w[k]
            if letters.setdefault(edge, lt) != lt:
                return False
    return all(asg.edge_letters.get(e) == lt for e, lt in letters.items())


def fulfill_probability_bound(Y: AbstractComplex, m: int, d: float) -> float:
    """(2m-1) ** ((4|Y|d - Cancel(Y)) / |Y|)."""
    size = len(Y.base.faces)
    return (2 * m - 1) ** ((4 * size * d - Y.cancel) / size)


@dataclass(frozen=True)
class ExactFulfillReport:
    probability: float
    p: tuple[float, ...]  # p_i for i = 1..n_labels, descending-multiplicity order
    ratios: tuple[float, ...]  # p_i / p_{i-1} with p_0 = 1
    counts: tuple[int, ...]
    pool: int


def exact_fulfill_probability(Y: AbstractComplex, m: int) -> ExactFulfillReport:
    """Exact fulfill probability for independent uniform words, one per label,
    by exhaustive prefix enumeration in the canonical label order.

    p_i = probability that words for the first i labels admit consistent edge
    letters on the faces of those labels.
    """
    n = Y.n_labels
    pool = w_count(m)
    if pool ** n > ENUMERATION_GUARD:
        raise InfeasibleError(f"{pool}^{n} tuples exceed the enumeration guard")
    table = Y.constraints
    if table is None:
        z = (0.0,) * n
        return ExactFulfillReport(0.0, z, z, (0,) * n, pool)
    counts = [0] * (n + 1)
    W = enumerate_cyclically_reduced(m)
    for prefix, _letters in _consistent_prefixes(table, W):
        counts[len(prefix)] += 1
    p = []
    ratios = []
    prev = 1.0
    for i in range(1, n + 1):
        pi = counts[i] / pool ** i
        p.append(pi)
        ratios.append(pi / prev if prev > 0 else 0.0)
        prev = pi
    return ExactFulfillReport(p[-1], tuple(p), tuple(ratios), tuple(counts[1:]), pool)


@dataclass(frozen=True)
class SetFulfillReport:
    probability: float
    r: int
    method: str
    feasible_tuples: int


def exact_set_fulfill_probability(Y: AbstractComplex, m: int, d: float) -> SetFulfillReport:
    """Exact probability that a uniformly random r-subset of the length-4
    cyclically reduced pool (r = relator count at density d) admits some
    label assignment fulfilling Y.

    Single-label complexes use the hypergeometric closed form. Two-label
    complexes count the subsets that miss: the r-subsets holding no feasible
    pair are the independent r-sets of the feasible-pair graph on the words
    that are not feasible with themselves. Otherwise all C(pool, r) subsets
    are enumerated against the feasible-tuple table. Both refusals are
    raised before the pool is listed.
    """
    n = Y.n_labels
    pool = w_count(m)
    r = relator_count(m, d)
    if pool ** n > ENUMERATION_GUARD:
        raise InfeasibleError("feasible-tuple table too large")
    total = math.comb(pool, r)
    if n > 1 and total > SUBSET_GUARD:
        raise InfeasibleError(f"{total} subsets exceed the enumeration budget")
    table = Y.constraints
    feasible = set() if table is None else {
        prefix for prefix, _letters
        in _consistent_prefixes(table, enumerate_cyclically_reduced(m))
        if len(prefix) == n}
    if n == 1:
        good = len(feasible)
        prob = 1.0 - math.comb(pool - good, r) / total
        return SetFulfillReport(prob, r, "hypergeometric", good)
    if n == 2:
        partners = [0] * pool
        for a, b in feasible:
            partners[a] |= 1 << b
            partners[b] |= 1 << a
        free = sum(1 << a for a in range(pool) if not partners[a] >> a & 1)
        hits = total - _independent_sets(partners, free, r)
    else:
        hits = 0
        for subset in combinations(range(pool), r):
            if any(t in feasible for t in product(subset, repeat=n)):
                hits += 1
    return SetFulfillReport(hits / total, r, "subset-enumeration", len(feasible))


def _independent_sets(partners: list, allowed: int, r: int) -> int:
    """r-subsets of the allowed vertices (a bitset) with no two partners,
    depth-first in vertex order, with a popcount at the last level."""
    if r <= 1:
        return allowed.bit_count() if r else 1
    count = 0
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        count += _independent_sets(partners, allowed & ~partners[low.bit_length() - 1],
                                   r - 1)
    return count


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of successes/trials."""
    z = 1.96
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # clamp so the point estimate always sits inside the interval
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


@dataclass(frozen=True)
class MonteCarloReport:
    bound: float
    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials,
            "seed": self.seed,
        }


def monte_carlo_set_fulfill(Y: AbstractComplex, m: int, d: float, trials: int,
                            seed: int) -> MonteCarloReport:
    """Fraction of sampled relator sets that fulfill Y, with a 95% Wilson
    interval and the multiplicative probability bound for context. Each
    trial runs the search kernel on Y's compiled table against a fresh
    sample, as fulfill_search would."""
    from .presentation import sample_presentation

    if trials < 100:
        raise ValueError("need at least 100 trials")
    table = Y.constraints
    hits = 0
    if table is not None:
        depth = len(table[0])
        for i in range(trials):
            pres = sample_presentation(m, d, seed * 1_000_000_007 + i)
            if any(len(prefix) == depth
                   for prefix, _letters in _consistent_prefixes(table, pres.relators)):
                hits += 1
    lo, hi = wilson_interval(hits, trials)
    return MonteCarloReport(
        bound=fulfill_probability_bound(Y, m, d),
        estimate=hits / trials,
        ci_low=lo,
        ci_high=hi,
        trials=trials,
        seed=seed,
    )
