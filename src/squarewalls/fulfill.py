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
        mult = Counter(f.label for f in self.base.faces.values())
        return sorted(mult, key=lambda i: (-mult[i], i))

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


def _compile(Y: AbstractComplex):
    """(label order, per-label constraints) for the search, or None when Y is
    not locally injective. Labels come in canonical order; each label's
    (edge, position, sign) constraints come in _idkey edge order."""
    order = Y.label_order()
    cons: dict = {lab: [] for lab in order}
    inc = Y.slot_incidences()
    for edge in sorted(inc, key=_idkey):
        seen = set()
        for _fid, _j, k, s, lab in inc[edge]:
            if (lab, k) in seen:
                return None
            seen.add((lab, k))
            cons[lab].append((edge, k, s))
    return order, [cons[lab] for lab in order]


def _consistent_prefixes(cons: list, W):
    """Depth-first over word choices, labels in compiled order and words in W
    order: yields (prefix, letters) for every prefix of word indices whose
    induced edge letters agree, the empty prefix first. letters is the live
    edge -> letter map, valid until the generator resumes."""
    letters: dict = {}

    def rec(prefix: tuple):
        yield prefix, letters
        if len(prefix) == len(cons):
            return
        here = cons[len(prefix)]
        for wi, w in enumerate(W):
            trail = []
            for edge, k, s in here:
                lt = w[k] if s == 1 else -w[k]
                have = letters.get(edge)
                if have is None:
                    letters[edge] = lt
                    trail.append(edge)
                elif have != lt:
                    break
            else:
                yield from rec(prefix + (wi,))
            for edge in trail:
                del letters[edge]

    return rec(())


def _locally_injective(Y: AbstractComplex) -> bool:
    for inc in Y.slot_incidences().values():
        pairs = [(lab, k) for _fid, _j, k, _s, lab in inc]
        if len(set(pairs)) != len(pairs):
            return False
    return True


def fulfill_search(Y: AbstractComplex, R: list[Word]) -> FulfillAssignment | None:
    """Backtracking search for a label -> word assignment (repetition across
    labels allowed) whose induced edge letters are consistent.

    Deterministic: labels are tried in canonical order, candidate words in R
    order. Returns None when the complex itself is not locally injective.
    """
    if not R:
        return None
    compiled = _compile(Y)
    if compiled is None:
        return None
    order, cons = compiled
    for prefix, letters in _consistent_prefixes(cons, R):
        if len(prefix) == len(order):
            return FulfillAssignment(
                words={lab: R[wi] for lab, wi in zip(order, prefix)},
                edge_letters=dict(letters))
    return None


def check_assignment(Y: AbstractComplex, asg: FulfillAssignment) -> bool:
    """Full revalidation of a search witness from scratch."""
    if set(asg.words) != set(Y.label_order()):
        return False
    if not _locally_injective(Y):
        return False
    letters: dict = {}
    for edge, inc in Y.slot_incidences().items():
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
    compiled = _compile(Y)
    if compiled is None:
        z = (0.0,) * n
        return ExactFulfillReport(0.0, z, z, (0,) * n, pool)
    counts = [0] * (n + 1)
    W = enumerate_cyclically_reduced(m)
    for prefix, _letters in _consistent_prefixes(compiled[1], W):
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


def exact_set_fulfill_probability(Y: AbstractComplex, m: int, d: float,
                                  max_subsets: int = 2_000_000) -> SetFulfillReport:
    """Exact probability that a uniformly random r-subset of the length-4
    cyclically reduced pool (r = relator count at density d) admits some
    label assignment fulfilling Y.

    Single-label complexes use the hypergeometric closed form; otherwise all
    C(pool, r) subsets are enumerated against the feasible-tuple table.
    """
    n = Y.n_labels
    pool = w_count(m)
    r = relator_count(m, d)
    W = enumerate_cyclically_reduced(m)
    if pool ** n > ENUMERATION_GUARD:
        raise InfeasibleError("feasible-tuple table too large")
    compiled = _compile(Y)
    feasible = set() if compiled is None else {
        prefix for prefix, _letters in _consistent_prefixes(compiled[1], W)
        if len(prefix) == n}
    if n == 1:
        good = len(feasible)
        prob = 1.0 - math.comb(pool - good, r) / math.comb(pool, r)
        return SetFulfillReport(prob, r, "hypergeometric", good)
    total = math.comb(pool, r)
    if total > max_subsets:
        raise InfeasibleError(f"{total} subsets exceed the enumeration budget")
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


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
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
    interval and the multiplicative probability bound for context. Y is
    compiled once; each trial runs the search kernel on a fresh sample, as
    fulfill_search would."""
    from .presentation import sample_presentation

    if trials < 100:
        raise ValueError("need at least 100 trials")
    compiled = _compile(Y)
    hits = 0
    if compiled is not None:
        cons = compiled[1]
        for i in range(trials):
            pres = sample_presentation(m, d, seed * 1_000_000_007 + i)
            if any(len(prefix) == len(cons)
                   for prefix, _letters in _consistent_prefixes(cons, pres.relators)):
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
