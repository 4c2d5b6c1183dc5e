"""The slot-table corpus path against the union-find path it replaced.

The oracle below is the earlier implementation, kept verbatim: the recursive
signed union-find, canonical_key minimizing over every face permutation,
build_quotient on two union-finds, and the cursor loop that rebuilds the
signed union-find for every candidate and label. The library must give the
same classes in the same order with the same representative gluings, keys
that are equal and sorted exactly as the oracle's, and the same quotients.

The slot-table coders that the packed codes replaced (_codes, _least_codes
with their permutation table) are kept verbatim too: the per-partition XOR
codes and the early-exit minimum must equal what they read.
"""

import random
from itertools import permutations

from squarewalls.complexes import (
    ComplexStructureError,
    Face,
    SquareComplex,
    Step,
    build_quotient,
    cancellation,
    slot_table,
)
from squarewalls.enumeration import (
    EnumerationCursor,
    MAX_FACES,
    WORK_COUNTERS,
    _complete_specs,
    _label_strings,
    _least_codes,
    _set_partitions,
    _sign_choice_codes,
    canonical_key,
)
from squarewalls.fulfill import AbstractComplex

# -- oracle: the union-find path, verbatim -----------------------------------


class _SignedUnion:
    """Union-find tracking a +-1 sign between each element and its root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n

    def find(self, x: int) -> tuple[int, int]:
        if self.parent[x] == x:
            return x, 1
        root, s = self.find(self.parent[x])
        self.parent[x] = root
        self.sign[x] *= s
        return root, self.sign[x]

    def union(self, x: int, y: int, s: int) -> bool:
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            return sx * sy == s
        self.parent[ry] = rx
        self.sign[ry] = sx * s * sy
        return True


class _Union:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def oracle_build_quotient(n_faces: int, identifications,
                          labels=None) -> SquareComplex | None:
    slots = _SignedUnion(4 * n_faces)
    corners = _Union(4 * n_faces)

    def tail(f, j):
        return 4 * f + j

    def head(f, j):
        return 4 * f + (j + 1) % 4

    for (f, j), (g, k), sgn in identifications:
        if sgn not in (1, -1):
            raise ValueError("identification sign must be +1 or -1")
        if not slots.union(4 * f + j, 4 * g + k, sgn):
            return None
        if sgn == 1:
            corners.union(tail(f, j), tail(g, k))
            corners.union(head(f, j), head(g, k))
        else:
            corners.union(tail(f, j), head(g, k))
            corners.union(head(f, j), tail(g, k))

    edge_roots = sorted({slots.find(s)[0] for s in range(4 * n_faces)})
    edge_id = {r: f"e{i}" for i, r in enumerate(edge_roots)}
    vert_roots = sorted({corners.find(c) for c in range(4 * n_faces)})
    vert_id = {r: f"u{i}" for i, r in enumerate(vert_roots)}
    edges = {}
    for r in edge_roots:
        f, j = divmod(r, 4)
        edges[edge_id[r]] = (vert_id[corners.find(tail(f, j))],
                             vert_id[corners.find(head(f, j))])
    faces = {}
    for f in range(n_faces):
        walk = []
        for j in range(4):
            r, s = slots.find(4 * f + j)
            walk.append(Step(edge_id[r], s))
        faces[f] = Face(tuple(walk), label=None if labels is None else labels[f])
    try:
        return SquareComplex.named(vert_id.values(), edges, faces)
    except ComplexStructureError:
        return None


def oracle_canonical_key(n_faces: int, idents, labels) -> tuple:
    uf = _SignedUnion(4 * n_faces)
    for (f, j), (g, k), sign in idents:
        if not uf.union(4 * f + j, 4 * g + k, sign):
            return None
    best = None
    for perm in permutations(range(n_faces)):
        class_ids: dict = {}
        codes = []
        for new_f in range(n_faces):
            old_f = perm[new_f]
            for j in range(4):
                root, sign = uf.find(4 * old_f + j)
                if root not in class_ids:
                    class_ids[root] = (len(class_ids), sign)
                cid, base_sign = class_ids[root]
                codes.append((cid, sign * base_sign))
        lab_map: dict = {}
        labs = []
        for new_f in range(n_faces):
            lab = labels[perm[new_f]]
            labs.append(lab_map.setdefault(lab, len(lab_map) + 1))
        key = (n_faces, tuple(codes), tuple(labs))
        if best is None or key < best:
            best = key
    return best


def _sign_tuples(k: int):
    out = [()]
    for _ in range(k):
        out = [t + (s,) for t in out for s in (1, -1)]
    return out


def oracle_complete_specs(n_faces: int):
    seen = set()
    for part in _set_partitions(list(range(4 * n_faces))):
        if n_faces > 1 and not any(
                len({s // 4 for s in block}) > 1 for block in part):
            continue  # no cross-face class: quotient is disconnected
        blocks = [sorted(b) for b in part]
        sign_choices = [[]]
        for b in blocks:
            sign_choices = [c + [signs] for c in sign_choices
                            for signs in _sign_tuples(len(b) - 1)]
        for choice in sign_choices:
            idents = tuple((divmod(b[0], 4), divmod(x, 4), sg)
                           for b, signs in zip(blocks, choice)
                           for x, sg in zip(b[1:], signs))
            for labels in _label_strings(n_faces):
                key = oracle_canonical_key(n_faces, idents, labels)
                if key is None or key in seen:
                    continue
                seen.add(key)
                yield key, idents, labels


class OracleCursor:
    def __init__(self, max_faces: int, parent_cap: int = 400,
                 level_cap: int = 2500):
        if not 1 <= max_faces <= MAX_FACES:
            raise ValueError(f"max_faces must be in 1..{MAX_FACES}")
        self.max_faces = max_faces
        self.parent_cap = parent_cap
        self.level_cap = level_cap
        self.truncated = False  # set when a growth cap actually trimmed
        self._seen: set = set()

    def __iter__(self):
        levels: dict[int, list] = {}
        for n in (1, 2):
            if n > self.max_faces:
                break
            levels[n] = []
            for key, idents, labels in sorted(oracle_complete_specs(n)):
                cx = oracle_build_quotient(n, idents, labels=list(labels))
                if cx is None:
                    continue
                self._seen.add(key)
                levels[n].append((idents, labels, cancellation(cx)))
                yield AbstractComplex.wrap(cx)
        for n in range(3, self.max_faces + 1):
            pool = sorted(levels.get(n - 1, []), key=lambda t: (-t[2], t[0], t[1]))
            parents = pool[:self.parent_cap]
            if len(pool) > len(parents):
                self.truncated = True
            grown = []
            for idents, labels, _c in parents:
                grown.extend(self._attachments(n, idents, labels))
            grown.sort(key=lambda t: (-t[3], t[0]))
            if len(grown) > self.level_cap:
                self.truncated = True
            levels[n] = []
            for key, idents, labels, can in grown[:self.level_cap]:
                cx = oracle_build_quotient(n, idents, labels=list(labels))
                levels[n].append((idents, labels, can))
                yield AbstractComplex.wrap(cx)

    def _attachments(self, n: int, idents, labels):
        new = n - 1
        base_slots = [(f, j) for f in range(new) for j in range(4)]
        out = []
        firsts = [(bs, (new, j), s)
                  for bs in base_slots for j in range(4) for s in (1, -1)]
        for first in firsts:
            options = [None]
            for bs in base_slots + [(new, j) for j in range(4)]:
                for j2 in range(4):
                    if (new, j2) == first[1] or bs == (new, j2):
                        continue
                    for s2 in (1, -1):
                        options.append((bs, (new, j2), s2))
            for second in options:
                cand = list(idents) + [first] + ([second] if second else [])
                for lab in range(1, max(labels) + 2):
                    labs = tuple(labels) + (lab,)
                    key = oracle_canonical_key(n, cand, labs)
                    if key is None or key in self._seen:
                        continue
                    cx = oracle_build_quotient(n, cand, labels=list(labs))
                    if cx is None:
                        continue
                    self._seen.add(key)
                    out.append((key, cand, labs, cancellation(cx)))
        return out


# -- oracle: the slot-table coders, verbatim -----------------------------------

# per face count: each face permutation and its slots in reading order
_ORDERS = {n: [(perm, [4 * f + j for f in perm for j in range(4)])
               for perm in permutations(range(n))]
           for n in range(1, MAX_FACES + 1)}


def _codes(root, sign, order) -> list:
    """Slot codes read in the given slot order: 2*cid + (relative sign == +1),
    with edge classes numbered by first occurrence and signs taken relative
    to that occurrence."""
    first: dict = {}
    codes = []
    for x in order:
        r = root[x]
        base = first.get(r)
        if base is None:
            base = first[r] = (2 * len(first) + 1) ^ (sign[x] < 0)
        codes.append(base ^ (sign[x] < 0))
    return codes


def _oracle_least_codes(n_faces: int, table) -> tuple:
    """(least code tuple over face permutations, the permutations reaching
    it). The first four codes depend only on the first face, so only
    permutations starting with a face of least head are coded in full."""
    root, sign = table
    heads = [_codes(root, sign, range(4 * f, 4 * f + 4)) for f in range(n_faces)]
    least = min(heads)
    best, tied = None, []
    for perm, order in _ORDERS[n_faces]:
        if heads[perm[0]] != least:
            continue
        codes = _codes(root, sign, order)
        if best is None or codes < best:
            best, tied = codes, [perm]
        elif codes == best:
            tied.append(perm)
    return tuple(best), tied


def packed(codes) -> int:
    """Codes 8 bits apiece, the first most significant."""
    out = 0
    for c in codes:
        assert 0 <= c < 256
        out = out << 8 | c
    return out


# -- checks ----------------------------------------------------------------------


def test_capped_three_face_corpus_matches_oracle():
    caps = dict(parent_cap=3, level_cap=100)
    cursor, oracle = EnumerationCursor(3, **caps), OracleCursor(3, **caps)
    got = [Y.to_json() for Y in cursor]
    want = [Y.to_json() for Y in oracle]
    assert len(got) == len(want) == 49 + 74528 + 100
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"class {i} differs"
    assert cursor.truncated == oracle.truncated is True


def test_keys_equal_and_sort_as_oracle_keys():
    """Every 1- and 2-face spec, and a relabelled, reordered copy of each:
    the two key functions induce the same equality and the same order."""
    rng = random.Random(7)
    pairs = []
    for n in (1, 2):
        for _key, idents, labels, _table in _complete_specs(
                n, dict.fromkeys(WORK_COUNTERS, 0)):
            specs = [(idents, list(labels))]
            perm = list(range(n))
            rng.shuffle(perm)
            specs.append((
                [((perm[a[0]], a[1]), (perm[b[0]], b[1]), s)
                 if rng.random() < 0.5 else
                 ((perm[b[0]], b[1]), (perm[a[0]], a[1]), s)
                 for a, b, s in rng.sample(idents, len(idents))],
                [labels[perm.index(f)] for f in range(n)]))
            for sp_idents, sp_labels in specs:
                pairs.append((canonical_key(n, sp_idents, sp_labels),
                              oracle_canonical_key(n, sp_idents, sp_labels)))
    assert all(new is not None and old is not None for new, old in pairs)
    forward = {new: old for new, old in pairs}
    backward = {old: new for new, old in pairs}
    assert len(forward) == len(backward) == 49 + 74528
    assert all(forward[new] == old and backward[old] == new for new, old in pairs)
    ordered = sorted(forward)
    assert sorted(backward) == [forward[new] for new in ordered]


def test_build_quotient_matches_oracle():
    rng = random.Random(11)
    outcomes = {"none": 0, "complex": 0}
    for _ in range(2000):
        n = rng.randint(1, 4)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = [(*rng.sample(slots, 2), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 2 * n + 1))]
        if rng.random() < 0.1:
            a = rng.choice(slots)
            idents.insert(rng.randrange(len(idents) + 1), (a, a, -1))
        labels = [rng.randint(1, 3) for _ in range(n)]
        new = build_quotient(n, idents, labels=labels)
        old = oracle_build_quotient(n, idents, labels=labels)
        assert (new is None) == (old is None)
        if old is None:
            outcomes["none"] += 1
        else:
            outcomes["complex"] += 1
            assert new.to_json() == old.to_json()
    assert min(outcomes.values()) > 300


def test_sign_choice_codes_equal_the_coder_on_every_signed_partition():
    """Every signed slot partition of one and two squares, connected or not,
    under every face permutation: the XOR-derived packed codes of each sign
    choice, in the product order of the blocks' sign tuples, equal the
    packed codes the slot-table coder reads."""
    choices = 0
    for n in (1, 2):
        for part in _set_partitions(list(range(4 * n))):
            blocks = [sorted(b) for b in part]
            root = [0] * (4 * n)
            for b in blocks:
                for x in b:
                    root[x] = b[0]
            free = [x for b in blocks for x in b[1:]]
            got = {tuple(order): _sign_choice_codes(tuple(root), free, order)
                   for _perm, order in _ORDERS[n]}
            signed = [[]]
            for b in blocks:
                signed = [c + [signs] for c in signed
                          for signs in _sign_tuples(len(b) - 1)]
            assert all(len(codes) == len(signed) for codes in got.values())
            for i, choice in enumerate(signed):
                sign = [1] * (4 * n)
                for b, signs in zip(blocks, choice):
                    for x, sg in zip(b[1:], signs):
                        sign[x] = sg
                for order, codes in got.items():
                    assert codes[i] == packed(_codes(root, sign, order))
                choices += 1
    assert choices == 49 + 75905


def test_early_exit_least_codes_equal_the_full_minimum():
    """Seeded random gluings of three to five squares, and growth tables (a
    2-face spec extended to a third face by one or two identifications):
    the early-exit minimum and its tied permutations equal the full
    minimum's, and so does canonical_key's tuple form."""
    rng = random.Random(23)
    tables = []
    while len(tables) < 3000:
        n = rng.randint(3, MAX_FACES)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = [(*rng.sample(slots, 2), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 2 * n + 2))]
        # symmetric gluings tie several permutations
        if rng.random() < 0.3:
            idents = [((f, j), ((f + 1) % n, k), s) for (f, j), (_g, k), s in idents]
        table = slot_table(n, idents)
        if table is not None:
            tables.append((n, table, idents))
    specs = list(_complete_specs(2, dict.fromkeys(WORK_COUNTERS, 0)))
    grown = 0
    while grown < 2000:
        _key, idents, _labels, table = rng.choice(specs)
        new = [((rng.randrange(2), rng.randrange(4)), (2, rng.randrange(4)),
                rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
        table = slot_table(3, new, (table[0] + (8, 9, 10, 11), table[1] + (1,) * 4))
        if table is not None:
            tables.append((3, table, list(idents) + new))
            grown += 1
    ties = 0
    for n, table, idents in tables:
        codes, tied = _least_codes(n, table)
        want, want_tied = _oracle_least_codes(n, table)
        assert codes == packed(want)
        assert list(tied) == want_tied
        assert canonical_key(n, idents, [1] * n)[1] == want
        ties += len(tied) > 1
    assert ties > 100
