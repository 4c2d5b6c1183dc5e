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

Every fulfill entry point reads one compiled constraint table per complex
(AbstractComplex.constraints): the canonical label order, each label's
(edge position, relator position, sign) triples, and the edge ids by
position. It does not depend on the relator words, so it is built the first
time a complex is searched or counted and reused by every later call; the
first scan over a corpus pays for the compile, later scans do not.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .complexes import SquareComplex, _idkey, cancellation
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


@dataclass(frozen=True)
class AbstractComplex:
    """SquareComplex whose faces all carry labels 1..n_labels plus reading
    decorations (start slot, orientation)."""

    base: SquareComplex
    n_labels: int

    def __post_init__(self):
        seen = set()
        for fid, f in self.base.faces.items():
            if not isinstance(f.label, int) or not 1 <= f.label <= self.n_labels:
                raise FulfillError(f"face {fid!r} label {f.label!r} out of range")
            seen.add(f.label)
        if seen != set(range(1, self.n_labels + 1)):
            raise FulfillError("every label in 1..n_labels must be used")

    @classmethod
    def wrap(cls, cx: SquareComplex) -> "AbstractComplex":
        labels = {f.label for f in cx.faces.values()}
        if not labels or None in labels:
            raise FulfillError("all faces need integer labels")
        return cls(cx, max(labels))

    def label_order(self) -> list[int]:
        """Labels sorted by descending multiplicity, ties by label."""
        mult: dict = {}
        for f in self.base.faces.values():
            mult[f.label] = mult.get(f.label, 0) + 1
        return sorted(mult, key=lambda i: (-mult[i], i))

    @property
    def constraints(self):
        """The compiled constraint table (see _constraint_table), built on
        first use and kept. A plain __dict__ fill: the table is tuples of
        ints and ids, which the garbage collector stops tracking."""
        d = self.__dict__
        if "_constraints" not in d:
            d["_constraints"] = _constraint_table(self)
        return d["_constraints"]

    @property
    def cancel(self) -> int:
        """Cancel(Y) over every edge, bare edges included; computed once."""
        d = self.__dict__
        if "_cancel" not in d:
            d["_cancel"] = cancellation(self.base)
        return d["_cancel"]

    def slot_incidences(self) -> dict:
        """edge -> list of (face id, slot, position, sign, label), sorted."""
        out: dict = {}
        for fid in sorted(self.base.faces, key=_idkey):
            f = self.base.faces[fid]
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
            raise FulfillError(f"edge {edge!r} repeats a (label, position) incidence")
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
        cancel=cancellation(Y.base),
    )


# one tuple per distinct label order and constraint triple, shared by every
# table: a corpus then holds a few new objects per table, not one per slot.
# Both kinds are tuples of small ints, bounded by the largest complex seen.
_SHARED: dict = {}


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
    can = cancellation(Y.base)
    return (2 * m - 1) ** ((4 * size * d - can) / size)


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

    Single-label complexes use the hypergeometric closed form; otherwise all
    C(pool, r) subsets are enumerated against the feasible-tuple table.
    Both refusals are raised before the pool is listed.
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
    hits = 0
    if n == 2:
        partners = [0] * pool
        for a, b in feasible:
            partners[a] |= 1 << b
        for subset in combinations(range(pool), r):
            mask = 0
            for b in subset:
                mask |= 1 << b
            if any(partners[a] & mask for a in subset):
                hits += 1
    else:
        for subset in combinations(range(pool), r):
            if any(t in feasible for t in product(subset, repeat=n)):
                hits += 1
    return SetFulfillReport(hits / total, r, "subset-enumeration", len(feasible))


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
