"""The slot-table corpus path against the union-find path it replaced.

The oracle below is the earlier implementation, kept verbatim: the recursive
signed union-find, canonical_key minimizing over every face permutation,
build_quotient on two union-finds, and the cursor loop that rebuilds the
signed union-find for every candidate and label. The library must give the
same classes in the same order with the same representative gluings, keys
that are equal and sorted exactly as the oracle's, and the same quotients.
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
)
from squarewalls.enumeration import (
    EnumerationCursor,
    MAX_FACES,
    _complete_specs,
    _label_strings,
    _set_partitions,
    _sign_tuples,
    _spec_idents,
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
        return SquareComplex(vert_id.values(), edges, faces)
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
            idents = _spec_idents(list(zip(blocks, choice)))
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
        for _key, idents, labels, _table in _complete_specs(n):
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
