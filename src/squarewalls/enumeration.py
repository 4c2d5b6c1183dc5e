"""Canonical enumeration of small labeled square complexes and pattern
searches for forbidden local configurations in relator sets.

Complexes are generated as quotients of K disjoint squares by signed
edge-slot identifications, read in the fixed frame (start 0, orientation +1);
every choice of reading decoration is captured by some slot partition, so the
frame costs no generality. Isomorphism classes are deduplicated by a
canonical key minimized over face permutations, with edge orientations
normalized to the first occurrence and labels renamed in first-use order.
Bare vertex pinches (vertex identifications not induced by edge gluings) are
not generated: they change no edge letter constraint and no cancellation
statistic.

Enumeration is complete for K <= 2. For K in 3..5 complexes are grown from
the complete 2-face classes by attaching one face at a time with one or two
identifications, keeping the highest-cancellation candidates at each level;
this reaches every configuration the scans target (chains, corner contacts,
doubled pairs plus a neighbor) but is not exhaustive, and the per-level caps
make the trade-off explicit.

Each gluing is read through one slot table (complexes.slot_table), a flat
(root, sign) list per slot. The key's slot codes are flat ints
2*class + (sign relative to the class's first occurrence == +1), below 40,
packed 8 bits apiece into one int with the first code most significant; at
a fixed face count these ints order exactly as the code lists do. A key is
(face count, packed codes, labels renamed in first-use order), and
canonical_key alone hands the codes out as a tuple. Growth codes only the
permutations whose first face has the least four-code head, and abandons
each once its codes exceed the least so far; the codes do not depend on the
labels, so all label choices of one gluing share them. Growth builds the
parent's table once and extends it by the one or two new identifications of
each candidate.

The complete levels are read per slot partition. A slot's class number, its
first occurrence in a permutation's reading order, does not depend on the
signs, so each permutation is read once per partition and every sign
choice's packed codes follow by one XOR. A label string of one or two faces
is all equal or all distinct, so it is its own first-use renaming. Signs,
table and identifications are written out only for a gluing that yields a
new key: every slot's root is its block's least slot, and its sign the sign
chosen for it. Each complete-level class is built from the table its key was
read from, and the label-free part of the quotient (complexes._skeleton) is
built once per gluing and shared by its labelings. Roots, signs, label
tuples and identification triples are shared objects, one per value.

The cursor holds only what its output needs. A complete level's specs are
sorted once and popped as each class is built, so the list shrinks as the
classes appear; their keys never enter the growth's seen set, since every
key begins with its face count. Growth streams its candidates through a
heap that keeps at most level_cap of them (heapq.nsmallest, which equals
sorting them all and cutting), counts the rest only as new keys, and
rebuilds the tables of those it keeps rather than holding one per
candidate.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from .complexes import (
    IsoParams,
    _quotient,
    _skeleton,
    build_quotient,
    cancellation,
    check_generalized_iso,
    slot_table,
)
from .fulfill import (
    AbstractComplex,
    FulfillAssignment,
    check_assignment,
    fulfill_search,
    least_tuple,
    tuple_filter,
)
from .presentation import Word, letter_token

MAX_FACES = 5
WORK_COUNTERS = ("keys", "folded", "repeats", "disconnected", "classes")


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1:]
        yield [[first]] + part


# (root slot, slot, sign) -> the identification tuple build_quotient reads,
# one object per value, shared by every gluing that chains that pair
_IDENTS: dict = {}


def _spec_idents(chained, sign) -> tuple:
    """The identification tuples for build_quotient that chain each (root
    slot, slot) pair of a partition with the slot's sign."""
    out = []
    for root, slot in chained:
        key = (root, slot, sign[slot])
        ident = _IDENTS.get(key)
        if ident is None:
            ident = _IDENTS[key] = (divmod(root, 4), divmod(slot, 4), key[2])
        out.append(ident)
    return tuple(out)


@cache
def _orders(n_faces: int) -> list:
    """Each face permutation of n_faces squares and its slots in reading
    order, built on first use."""
    return [(perm, [4 * f + j for f in perm for j in range(4)])
            for perm in permutations(range(n_faces))]


def _codes(root, flips, order, bound) -> list | None:
    """Slot codes read in the given slot order: 2*cid + (relative sign == +1),
    with edge classes numbered by first occurrence and signs taken relative
    to that occurrence; flips[x] is sign[x] < 0. Unless bound is None, a
    code list as long as order, None as soon as the codes read so far
    exceed bound's prefix."""
    first = [-1] * len(root)  # per root slot its class's base code, -1 unseen
    codes = []
    fresh = 1  # the base code of the next class
    tight = bound is not None  # the codes so far equal bound's prefix
    for x in order:
        r, flip = root[x], flips[x]
        base = first[r]
        if base < 0:
            base = first[r] = fresh ^ flip
            fresh += 2
        code = base ^ flip
        if tight and code != bound[len(codes)]:
            if code > bound[len(codes)]:
                return None
            tight = False
        codes.append(code)
    return codes


def _least_codes(n_faces: int, table) -> tuple:
    """(least codes over face permutations, packed, the permutations reaching
    them). The first four codes depend only on the first face, so only
    permutations starting with a face of least head are coded, each
    abandoned once its codes exceed the least so far. Codes are below 40,
    so packing them 8 bits apiece, the first most significant, gives ints
    that order as the code lists do at a fixed face count."""
    root, sign = table
    flips = [s < 0 for s in sign]
    heads = [_codes(root, flips, range(4 * f, 4 * f + 4), None)
             for f in range(n_faces)]
    least = min(heads)
    best, tied = None, []
    for perm, order in _orders(n_faces):
        if heads[perm[0]] != least:
            continue
        codes = _codes(root, flips, order, best)
        if codes is None:
            continue
        if codes == best:
            tied.append(perm)
        else:
            best, tied = codes, [perm]
    return int.from_bytes(bytes(best), "big"), tuple(tied)


@cache
def _least_labels(tied: tuple, labels: tuple) -> tuple:
    """Least first-use renaming of the labels over the tied permutations,
    one tuple per argument pair, which every key holding it shares."""
    best = None
    for perm in tied:
        names: dict = {}
        labs = tuple(names.setdefault(labels[f], len(names) + 1) for f in perm)
        if best is None or labs < best:
            best = labs
    return best


def canonical_key(n_faces: int, idents, labels) -> tuple:
    """Isomorphism-class key: minimum over face permutations of the slot
    partition encoding, with per-class signs relative to the first occurrence
    and labels renamed in first-use order. The codes are a tuple of 4n ints
    here; the cursor keeps them packed into one int (see _least_codes).
    Returns None on a folded gluing."""
    table = slot_table(n_faces, idents)
    if table is None:
        return None
    codes, tied = _least_codes(n_faces, table)
    return (n_faces, tuple(codes.to_bytes(4 * n_faces, "big")),
            _least_labels(tied, tuple(labels)))


def _label_strings(n: int):
    """Restricted-growth label tuples: first face 1, each next at most max+1."""
    out = [(1,)]
    for _ in range(n - 1):
        out = [t + (lab,) for t in out for lab in range(1, max(t) + 2)]
    return out


def _sign_choice_codes(root, free, order) -> list:
    """The packed codes read in order for every sign choice of a partition
    (root as in a slot table, free its slots that are not their block's
    least), in the order of the product over the blocks' sign tuples, each
    block's listed as (1, ..., 1), (1, ..., -1), ..., (-1, ..., -1).

    Class numbers do not depend on the signs, so the codes with every sign
    +1 are read once. Setting free slot y to -1 flips bit 0 of the codes at
    the positions where exactly one of (the position's slot, its class's
    first slot in order) is y. The product counts in binary over the free
    slots, the first most significant and -1 as 1, so each choice's codes
    are an earlier choice's codes with one mask XORed in."""
    first: dict = {}  # root -> (class code, the class's first slot in order)
    packed = 0
    flips = dict.fromkeys(free, 0)
    bit = 1 << 8 * len(order)
    for x in order:
        bit >>= 8
        code, lead = first.setdefault(root[x], (2 * len(first) + 1, x))
        packed = packed << 8 | code
        if lead != x:
            if x in flips:
                flips[x] ^= bit
            if lead in flips:
                flips[lead] ^= bit
    out = [packed]
    for y in reversed(free):
        mask = flips[y]
        out += [c ^ mask for c in out]
    return out


def _complete_specs(n_faces: int, work: dict):
    """All connected fold-free signed slot partitions on n_faces <= 2
    squares, deduplicated; yields (key, idents, labels, table) in partition,
    sign choice and label order, where table is the slot table of idents as
    a pair of tuples, shared by every labeling of one gluing and only read.
    Counts into work as _new_keys does.

    Each partition's face permutations are read once and every sign
    choice's packed codes derived by XOR (_sign_choice_codes); the least
    over the permutations is the key's codes. A label string of one or two
    faces is all equal or all distinct, so renaming it in first-use order
    leaves it as it is, and a gluing's keys are all new or all repeats: the
    seen set holds codes. Signs, table and idents are built only for a
    gluing that yields new keys: every slot's root is its block's least
    slot, and its sign the sign chosen for it."""
    label_strings = _label_strings(n_faces)
    orders = _orders(n_faces)
    seen = set()
    shared: dict = {}  # one sign tuple per value, as one root tuple per partition
    for part in _set_partitions(list(range(4 * n_faces))):
        if n_faces > 1 and not any(
                len({s // 4 for s in block}) > 1 for block in part):
            continue  # no cross-face class: quotient is disconnected
        blocks = [sorted(b) for b in part]
        root = [0] * (4 * n_faces)
        for b in blocks:
            for x in b:
                root[x] = b[0]
        root = tuple(root)
        chained = [(b[0], x) for b in blocks for x in b[1:]]
        free = [x for _b0, x in chained]
        least = map(min, zip(*(_sign_choice_codes(root, free, order)
                               for _perm, order in orders)))
        top = len(free) - 1
        for choice, codes in enumerate(least):
            work["keys"] += len(label_strings)
            if codes in seen:
                work["repeats"] += len(label_strings)
                continue
            seen.add(codes)
            sign = [1] * (4 * n_faces)
            for i, x in enumerate(free):
                if choice >> (top - i) & 1:
                    sign[x] = -1
            sign = tuple(sign)
            table = (root, shared.setdefault(sign, sign))
            idents = _spec_idents(chained, sign)
            for labels in label_strings:
                yield (n_faces, codes, labels), idents, labels, table


def _new_keys(n_faces: int, table, label_choices, seen: set, work: dict) -> list:
    """(key, labels) for each label choice on one gluing's slot table whose
    key is not in seen yet, adding it to seen. A key is (face count, packed
    codes, labels renamed in first-use order). work counts a folded table
    (None) once per label choice, else every key computed and every
    repeat."""
    if table is None:
        work["folded"] += len(label_choices)
        return []
    codes, tied = _least_codes(n_faces, table)
    out = []
    for labels in label_choices:
        labs = _least_labels(tied, labels)
        key = (n_faces, codes, labs)
        work["keys"] += 1
        if key in seen:
            work["repeats"] += 1
            continue
        seen.add(key)
        out.append((key, labels))
    return out


class EnumerationCursor:
    """Single-owner iterator over isomorphism classes of connected labeled
    complexes with at most max_faces faces, each class exactly once.

    Every pass starts afresh. work holds the last pass's deterministic
    counters: keys computed, folded candidates (one per gluing and label),
    repeats (keys already seen), disconnected quotients and classes kept
    (the classes yielded)."""

    def __init__(self, max_faces: int, parent_cap: int = 400,
                 level_cap: int = 2500):
        if not 1 <= max_faces <= MAX_FACES:
            raise ValueError(f"max_faces must be in 1..{MAX_FACES}")
        if parent_cap < 0 or level_cap < 0:
            raise ValueError("parent_cap and level_cap must be >= 0")
        self.max_faces = max_faces
        self.parent_cap = parent_cap
        self.level_cap = level_cap
        self.truncated = False  # set when a growth cap actually trimmed
        self.work = dict.fromkeys(WORK_COUNTERS, 0)

    def __iter__(self):
        self.truncated = False
        work = self.work = dict.fromkeys(WORK_COUNTERS, 0)
        for n in (1, 2):
            if n > self.max_faces:
                break
            pool = []  # (idents, labels, cancel) of each class of the level
            # popped in key order as each class is built, so the list holds
            # only the specs not built yet; the labelings of one gluing have
            # equal codes, so they pop in a row and share one skeleton
            specs = sorted(_complete_specs(n, work), reverse=True)
            last = skeleton = None
            while specs:
                _key, idents, labels, table = specs.pop()
                if table is not last:
                    last, skeleton = table, _skeleton(n, idents, table)
                cx = _quotient(skeleton, labels)
                if cx is None:
                    work["disconnected"] += 1
                    continue
                pool.append((idents, labels, cancellation(cx)))
                work["classes"] += 1
                yield AbstractComplex(cx, max(labels))
        # growth keys only: a key begins with its face count, so no key of a
        # complete level can match one
        seen: set = set()
        for n in range(3, self.max_faces + 1):
            parents = heapq.nsmallest(self.parent_cap, pool,
                                      key=lambda t: (-t[2], t[0], t[1]))
            if len(pool) > self.parent_cap:
                self.truncated = True
            found = work["keys"] - work["repeats"]
            cands = (c for idents, labels, _c in parents
                     for c in _attachments(n, idents, labels, seen, work))
            grown = heapq.nsmallest(self.level_cap, cands,
                                    key=lambda t: (-t[3], t[0]))
            # nsmallest(0, ...) reads nothing: drain the rest so that every
            # candidate is counted whatever the cap
            for _ in cands:
                pass
            if work["keys"] - work["repeats"] - found > self.level_cap:
                self.truncated = True
            pool = []
            for _key, idents, labels, can in grown:
                cx = build_quotient(n, idents, labels=labels)
                pool.append((idents, labels, can))
                work["classes"] += 1
                yield AbstractComplex(cx, max(labels))


def _attachments(n: int, idents, labels, seen: set, work: dict):
    """Attach face n-1 to a connected (n-1)-face complex by one or two signed
    identifications; yields the (key, idents, labels, cancel) of keys not in
    seen, adding them to it.

    The parent's slot table is built once; each (first, second) gluing
    extends it by at most two unions and all label choices share the result.
    The first identification joins the new face to the parent, so every
    candidate is connected, and its cancellation is 4n minus its edge count."""
    new = n - 1
    base_slots = [(f, j) for f in range(new) for j in range(4)]
    new_slots = [(new, j) for j in range(4)]
    label_choices = [tuple(labels) + (lab,) for lab in range(1, max(labels) + 2)]
    seconds = {
        j: [None] + [(bs, (new, j2), s2)
                     for bs in base_slots + new_slots for j2 in range(4)
                     if j2 != j and bs != (new, j2) for s2 in (1, -1)]
        for j in range(4)}
    parent = slot_table(n, idents)
    for bs in base_slots:
        for j in range(4):
            for s in (1, -1):
                first = (bs, (new, j), s)
                joined = slot_table(n, [first], parent)
                for second in seconds[j]:
                    table = joined if second is None else slot_table(n, [second], joined)
                    fresh = _new_keys(n, table, label_choices, seen, work)
                    if fresh:
                        cand = idents + ((first, second) if second else (first,))
                        can = 4 * n - len(set(table[0]))
                        for key, labs in fresh:
                            yield key, cand, labs, can


def random_labeled_complex(seed: int) -> AbstractComplex | None:
    """Seeded random quotient of 1 to 4 faces with contiguous labels; None
    when the draw folds or disconnects."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    slots = [(f, j) for f in range(n) for j in range(4)]
    idents = []
    for _ in range(rng.randint(max(0, n - 1), 2 * n)):
        a, b = rng.sample(slots, 2)
        idents.append((a, b, rng.choice((1, -1))))
    labels = [rng.randint(1, min(n, 3)) for _ in range(n)]
    used = sorted(set(labels))
    labels = [used.index(lab) + 1 for lab in labels]
    cx = build_quotient(n, idents, labels=labels)
    return None if cx is None else AbstractComplex.wrap(cx)


# -- local generalized-isoperimetry scan ---------------------------------------


@dataclass(frozen=True)
class IsoViolation:
    complex: AbstractComplex
    assignment: FulfillAssignment
    cancel: int
    size: int
    threshold: float

    def to_json_line(self) -> str:
        words = {str(lab): [letter_token(lt) for lt in w]
                 for lab, w in sorted(self.assignment.words.items())}
        return json.dumps({
            "complex": json.loads(self.complex.to_json()),
            "assignment": words,
            "cancel": self.cancel,
            "size": self.size,
            "threshold": self.threshold,
        }, sort_keys=True)


def scan_local_iso(R: list[Word], K: int, p: IsoParams,
                   classes=None) -> list[IsoViolation]:
    """Every enumerated complex fulfillable by R whose cancellation exceeds
    4(d+eps)|Y|, with its word assignment witness.

    The classes are those of EnumerationCursor(K) unless a pre-enumerated
    class list is supplied to amortize the enumeration across scans. An
    above-threshold class goes to the search kernel only when the bitset
    filter (fulfill.tuple_filter) finds a word tuple of R fulfilling it, or
    when its tuple space is above the filter's bound; the kernel's witness
    must then be the least such tuple. Each class keeps its cancellation,
    its requirement mask and, once searched, its constraint table
    (AbstractComplex.cancel, .requirements, .constraints), so the first scan
    over a list pays for compiling them and every later scan, for any R,
    reuses them."""
    out = []
    fulfilling = tuple_filter(R)
    rate = 4 * (p.d + p.eps)
    for Y in classes if classes is not None else EnumerationCursor(K):
        size = len(Y.base.faces)
        threshold = rate * size
        can = Y.cancel
        if can <= threshold:
            continue
        tuples = fulfilling(Y)
        if tuples == 0:
            continue
        asg = fulfill_search(Y, R)
        if asg is None and tuples is None:
            continue
        assert asg is not None
        assert tuples is None or least_tuple(tuples, R, Y.n_labels) == tuple(
            asg.words.values())
        assert check_assignment(Y, asg)
        assert check_generalized_iso(Y.base, p).violation
        out.append(IsoViolation(Y, asg, can, size, threshold))
    return out


# -- special-cell pattern search -------------------------------------------------


def _slot_matches(u: Word, v: Word, same: bool):
    """Consistent single-edge gluings (k, l, sign) between a u-face and a
    v-face. For a relator against its own translates (same=True), gluings
    that pin equal positions in the same direction are excluded: they force
    the two cells to coincide."""
    out = []
    for k in range(4):
        for l in range(4):
            if same and k == l:
                continue
            if u[k] == v[l]:
                out.append((k, l, 1))
            if u[k] == -v[l]:
                out.append((k, l, -1))
    return out


def _compatible(ms):
    ks = [m[0] for m in ms]
    ls = [m[1] for m in ms]
    return len(set(ks)) == len(ks) and len(set(ls)) == len(ls)


@dataclass(frozen=True)
class PairOverlap:
    i: int
    j: int
    gluings: tuple  # (position in relator i, position in relator j, sign)
    same_relator: bool


@dataclass(frozen=True)
class ThirdFaceWitness:
    pair: PairOverlap
    third: int
    edge_matches: tuple  # ((side, boundary position, word slot, sign), ...)
    same_relator: bool


@dataclass(frozen=True)
class SpecialCellsReport:
    three_shares: tuple
    same_relator_three_shares: tuple
    strong_pairs: tuple
    same_relator_strong_pairs: tuple
    third_face_witnesses: tuple
    same_relator_third_face: tuple

    @property
    def cross_witness_count(self) -> int:
        return len(self.three_shares) + len(self.third_face_witnesses)

    def to_json_dict(self) -> dict:
        def enc(items):
            return [
                {"i": w.i, "j": w.j, "gluings": list(map(list, w.gluings))}
                for w in items
            ]

        def enc_third(items):
            return [
                {"i": w.pair.i, "j": w.pair.j, "third": w.third,
                 "edge_matches": list(map(list, w.edge_matches))}
                for w in items
            ]

        return {
            "three_shares": enc(self.three_shares),
            "same_relator_three_shares": enc(self.same_relator_three_shares),
            "strong_pairs": enc(self.strong_pairs),
            "same_relator_strong_pairs": enc(self.same_relator_strong_pairs),
            "third_face_witnesses": enc_third(self.third_face_witnesses),
            "same_relator_third_face": enc_third(self.same_relator_third_face),
            "cross_witness_count": self.cross_witness_count,
        }


def check_special_cells(R: list[Word]) -> SpecialCellsReport:
    """Search all relator pairs for faces sharing three edges, and around
    every two-shared-edge (strongly adjacent) pair, for a third relator face
    gluing to at least two edges of the pair's outer boundary.

    Patterns between a relator and its own translates are collected in the
    same_relator categories; cross_witness_count counts only the distinct-
    relator findings.
    """
    three, three_same = [], []
    strong, strong_same = [], []
    third_hits, third_same = [], []
    for i in range(len(R)):
        for j in range(i, len(R)):
            same = i == j
            ms = _slot_matches(R[i], R[j], same)
            pair_seen = set()
            for size, sink, sink_same in ((3, three, three_same),
                                          (2, strong, strong_same)):
                for combo in combinations(ms, size):
                    if not _compatible(combo):
                        continue
                    key = tuple(sorted(combo))
                    if same:
                        swapped = tuple(sorted((l, k, s) for k, l, s in combo))
                        key = min(key, swapped)
                    if (size, key) in pair_seen:
                        continue
                    pair_seen.add((size, key))
                    # every gluing joins face 0 to face 1, so the two faces
                    # are connected and only a fold rejects it
                    if slot_table(2, [((0, k), (1, l), s) for k, l, s in key]) is None:
                        continue
                    overlap = PairOverlap(i, j, key, same)
                    (sink_same if same else sink).append(overlap)
                    if size == 2:
                        for w in _third_face_witnesses(R, overlap):
                            (third_same if w.same_relator else third_hits).append(w)
    return SpecialCellsReport(
        tuple(three), tuple(three_same),
        tuple(strong), tuple(strong_same),
        tuple(third_hits), tuple(third_same),
    )


def _third_face_witnesses(R, overlap: PairOverlap):
    """Third faces gluing to >= 2 distinct free boundary edges of a strongly
    adjacent pair. Boundary edges keep (side, position, letter); a match of
    relator f onto edges all on one side at identical positions with sign +1
    is that side's own cell and is skipped."""
    u, v = R[overlap.i], R[overlap.j]
    used_u = {k for k, _l, _s in overlap.gluings}
    used_v = {l for _k, l, _s in overlap.gluings}
    boundary = [(0, k, u[k]) for k in range(4) if k not in used_u]
    boundary += [(1, l, v[l]) for l in range(4) if l not in used_v]
    out = []
    side_idx = {0: overlap.i, 1: overlap.j}
    for f, w in enumerate(R):
        for (e1, e2) in combinations(range(len(boundary)), 2):
            s1, p1, c1 = boundary[e1]
            s2, p2, c2 = boundary[e2]
            for q1 in range(4):
                for sg1 in (1, -1):
                    if w[q1] != (c1 if sg1 == 1 else -c1):
                        continue
                    for q2 in range(4):
                        if q2 == q1:
                            continue
                        for sg2 in (1, -1):
                            if w[q2] != (c2 if sg2 == 1 else -c2):
                                continue
                            matches = ((s1, p1, q1, sg1), (s2, p2, q2, sg2))
                            if (s1 == s2 and f == side_idx[s1]
                                    and q1 == p1 and q2 == p2
                                    and sg1 == sg2 == 1):
                                continue  # the side's own cell
                            out.append(ThirdFaceWitness(
                                overlap, f, matches,
                                f in (overlap.i, overlap.j)))
    return out
