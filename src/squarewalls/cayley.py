"""Finite balls of the Cayley complex of a square presentation.

words_equal is a bounded van Kampen prover: breadth-first rewriting of the
boundary word by relator insertions, capped by the area bound the
isoperimetric inequality grants for a boundary of that length. The last
layer below the cap is closed by a conjugacy test instead of being expanded:
an insertion there helps only if it empties the word. It answers "distinct"
only when the abelianization separates the words, and "undecided" when the
search is cut without a diagram.

build_ball grows the ball by coset enumeration with Felsch-style deduction
processing (Holt, Eick, O'Brien, Handbook of Computational Group Theory,
ch. 5). Every vertex within distance r+2 of the origin gets all 2n
neighbours, each definition created as a new vertex; hard_cap bounds the
number of vertices created. Each new edge (x, g) goes on a deduction stack,
which is drained at once: a pop scans from x the relator variants that begin
with g, completes a path missing a single edge, and merges the endpoints of
a closed path that disagree, through a union-find that keeps the smaller id.
Edges a merge carries onto the surviving vertex are pushed in turn. Distances
are recomputed once per growth round, and the stabilized table is restricted
to the requested radius.

A ball vertex is complete when every closed relator trace from it in the
table stays inside the ball, so that the ball holds every face of the
ambient complex at it.

The r+2 margin is a heuristic, not a proof: on a presentation that
collapses, a coincidence among radius-r vertices can need relator cycles
beyond radius r+2, and the ball then misses it (rank 6, density 0.2, seed 2,
radius 1 gives the free 13-vertex star, while the group has order 4).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

from .complexes import Face, SquareComplex, Step, _idkey
from .presentation import (
    Presentation,
    alphabet,
    free_reduce,
    inverse_word,
    is_reduced,
    letter_key,
    word_token,
)


class BudgetExhausted(RuntimeError):
    pass


# the epsilon of the isoperimetric inequality behind the area cap
AREA_EPS = 0.05


@dataclass(frozen=True)
class WordProblemBudget:
    """hard_cap bounds the words words_equal stores below its area cap and
    the vertices build_ball creates."""

    hard_cap: int = 1_000_000

    def area_cap(self, boundary_length: int, density: float) -> int:
        """Faces a minimal diagram with this boundary can have."""
        denom = 4.0 * (1.0 - 2.0 * density - AREA_EPS)
        if denom <= 0:
            raise ValueError(f"density + {AREA_EPS} must stay below 1/2")
        return math.ceil(boundary_length / denom)


def _check_density(P: Presentation):
    if P.density + AREA_EPS >= 0.5:
        raise ValueError(f"density + {AREA_EPS} must stay below 1/2")


def _relator_variants(P: Presentation) -> tuple:
    out = []
    for r in P.relators:
        for k in range(4):
            rot = r[k:] + r[:k]
            for v in (rot, inverse_word(rot)):
                if v not in out:
                    out.append(v)
    return tuple(out)


def _exponent_sums(word, rank: int) -> list:
    sums = [0] * rank
    for l in word:
        sums[abs(l) - 1] += 1 if l > 0 else -1
    return sums


def _in_row_lattice(rows, target) -> bool:
    """Is target an integer combination of rows?  Exact echelon form: each
    column's pivot comes from Euclidean steps among the rows nonzero there,
    and target is reduced by the pivot as soon as it is found."""
    rows = [list(row) for row in rows]
    t = list(target)
    for col in range(len(t)):
        live = [row for row in rows if row[col]]
        rows = [row for row in rows if not row[col]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[col]))
            rest = []
            for row in live:
                if row is not p:
                    q = row[col] // p[col]
                    row = [a - q * b for a, b in zip(row, p)]
                (rest if row[col] else rows).append(row)
            live = rest
        q, rem = divmod(t[col], live[0][col]) if live else (0, t[col])
        if rem:
            return False
        if q:
            t = [a - q * b for a, b in zip(t, live[0])]
    return True


@dataclass(frozen=True)
class WordsEqualResult:
    status: str  # "equal" | "distinct" | "undecided"
    faces: int | None = None
    witness: tuple = ()  # (position, inserted relator variant) per face
    states: int = 0  # words stored below the area cap; the closing test stores none


def replay_witness(P: Presentation, u, v, witness) -> bool:
    """Re-run an equality witness: inserting each variant at its position and
    freely reducing must take u·v⁻¹ to the empty word."""
    variants = set(_relator_variants(P))
    w = free_reduce(tuple(u) + inverse_word(tuple(v)))
    for i, var in witness:
        if var not in variants or i > len(w):
            return False
        w = free_reduce(w[:i] + var + w[i:])
    return w == ()


def words_equal(P: Presentation, u, v,
                budget: WordProblemBudget | None = None) -> WordsEqualResult:
    """Do u and v spell the same group element?

    "equal" always carries a replayable witness. "distinct" is answered only
    with a certificate: the exponent sums of u·v⁻¹ lie outside the integer
    row lattice of the relators' exponent sums, so u and v differ already in
    the abelianization. Otherwise "undecided" means the bounded search (area
    cap, word length cap |u·v⁻¹|+8, hard cap on states) found no diagram.

    The search is breadth-first over insertions of relator variants. Words one
    face below the area cap are not expanded: inserting var at position i of w
    empties the word exactly when var is the inverse of the reduced rotation
    w[i:]·w[:i], so each rotation is looked up among the variants. The words
    are visited in the same order as by full expansion, so status, faces and
    witness are those of full expansion; states counts the stored words below
    the cap.
    """
    budget = budget or WordProblemBudget()
    _check_density(P)
    u, v = tuple(u), tuple(v)
    if not is_reduced(u) or not is_reduced(v):
        raise ValueError("words must be reduced")
    w0 = free_reduce(u + inverse_word(v))
    if not w0:
        return WordsEqualResult("equal", faces=0)
    rows = [_exponent_sums(rel, P.rank) for rel in P.relators]
    if not _in_row_lattice(rows, _exponent_sums(w0, P.rank)):
        return WordsEqualResult("distinct")
    cap = budget.area_cap(len(u) + len(v), P.density)
    maxlen = len(w0) + 8
    variants = _relator_variants(P)
    variant_set = set(variants)
    parents: dict = {w0: None}
    queue = deque([(w0, 0)])
    states = 0

    def proved(depth: int) -> WordsEqualResult:
        trail = []
        x = ()
        while parents[x] is not None:
            x, pos, used = parents[x]
            trail.append((pos, used))
        trail.reverse()
        result = WordsEqualResult("equal", faces=depth + 1,
                                  witness=tuple(trail), states=states)
        assert replay_witness(P, u, v, result.witness)
        return result

    while queue:
        w, depth = queue.popleft()
        if depth == cap - 1:
            # one face below the cap: only an insertion that empties w helps
            for i in range(len(w) + 1):
                var = inverse_word(free_reduce(w[i:] + w[:i]))
                if var in variant_set:
                    parents[()] = (w, i, var)
                    return proved(depth)
            continue
        for i in range(len(w) + 1):
            for var in variants:
                nxt = free_reduce(w[:i] + var + w[i:])
                if len(nxt) > maxlen or nxt in parents:
                    continue
                states += 1
                if states > budget.hard_cap:
                    return WordsEqualResult("undecided", states=states)
                parents[nxt] = (w, i, var)
                if not nxt:
                    return proved(depth)
                queue.append((nxt, depth + 1))
    return WordsEqualResult("undecided", states=states)


# -- ball construction ------------------------------------------------------------


class CayleyBall:
    """Radius-r piece of the Cayley complex.

    Vertex ids are the canonical shortlex-geodesic representative words; edge
    (w, a) runs from w to w·a for a positive letter a; faces are numbered and
    read a cyclic rotation of their relator. complete maps each vertex to its
    completeness flag. work holds build_ball's deterministic counts
    (cosets_defined, coincidences, relator_scans); it is not part of
    to_json. The ball keeps no move table of its own: a word is read through
    the ball by following base.edges, since edge (w, a) is the a-move at w
    and, reversed, the a⁻¹-move at w·a.
    """

    def __init__(self, base: SquareComplex, radius: int,
                 presentation: Presentation, complete: dict, work: dict):
        self.base = base
        self.radius = radius
        self.presentation = presentation
        self.complete = complete
        self.work = work

    def to_json(self) -> str:
        doc = json.loads(self.base.to_json())
        doc["radius"] = self.radius
        doc["presentation"] = json.loads(self.presentation.to_json())
        doc["vertex_data"] = [
            {"representative": word_token(v), "complete": self.complete[v]}
            for v in sorted(self.base.vertices, key=_idkey)
        ]
        return json.dumps(doc, sort_keys=True)


def build_ball(P: Presentation, r: int,
               budget: WordProblemBudget | None = None) -> CayleyBall:
    if r < 0:
        raise ValueError("radius must be >= 0")
    budget = budget or WordProblemBudget()
    _check_density(P)
    gens = sorted(alphabet(P.rank), key=letter_key)
    by_first: dict = {g: [] for g in gens}
    for var in _relator_variants(P):
        by_first[var[0]].append(var)
    grow_to = r + 2

    parent = [0]
    nbr: list = [{}]
    stack: list = []  # deductions (x, g): edge x -g-> still to be scanned
    coincidences = scans = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def neighbor(x: int, g: int):
        y = nbr[find(x)].get(g)
        return None if y is None else find(y)

    def distances() -> dict:
        """Distance from the origin of every vertex within grow_to."""
        dist = {find(0): 0}
        frontier = [find(0)]
        for d in range(1, grow_to + 1):
            reached = []
            for x in frontier:
                for y in nbr[x].values():
                    y = find(y)
                    if y not in dist:
                        dist[y] = d
                        reached.append(y)
            frontier = reached
        return dist

    def merge(a: int, b: int) -> None:
        nonlocal coincidences
        queue = deque([(a, b)])
        while queue:
            x, y = queue.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            coincidences += 1
            for g, z in nbr[y].items():
                cur = nbr[x].get(g)
                if cur is None:
                    nbr[x][g] = find(z)
                    stack.append((x, g))
                elif find(cur) != find(z):
                    queue.append((cur, z))
            nbr[y] = None  # a merged vertex is only ever read through find

    def drain() -> None:
        """Scan every relator cycle through each pushed edge until no
        deduction is left: complete paths merge their endpoints, paths
        missing one edge get it."""
        nonlocal scans
        while stack:
            x0, g = stack.pop()
            variants = by_first[g]
            scans += len(variants)
            for var in variants:
                v = find(x0)
                x, i = v, 0  # x and y stay roots: nothing merges mid-scan
                while i < 4:
                    step = nbr[x].get(var[i])
                    if step is None:
                        break
                    x, i = find(step), i + 1
                if i == 4:
                    if x != v:
                        merge(x, v)
                    continue
                y, j = v, 4
                while j > i + 1:
                    step = nbr[y].get(-var[j - 1])
                    if step is None:
                        break
                    y, j = find(step), j - 1
                if j == i + 1:  # one missing edge: deduce it
                    other = nbr[y].get(-var[i])
                    if other is not None:
                        # y already has a var[i]-predecessor: coincidence
                        merge(x, other)
                    else:
                        nbr[x][var[i]] = y
                        nbr[y][-var[i]] = x
                        stack.append((x, var[i]))

    while True:
        dist = distances()
        defined = False
        for v in sorted(dist, key=lambda x: (dist[x], x)):
            if dist[v] >= grow_to:
                continue
            for g in gens:
                if neighbor(v, g) is None:
                    x = find(v)
                    parent.append(len(parent))
                    nbr.append({-g: x})
                    if len(parent) > budget.hard_cap:
                        raise BudgetExhausted(
                            f"more than {budget.hard_cap} vertices created")
                    nbr[x][g] = len(parent) - 1
                    stack.append((x, g))
                    drain()
                    defined = True
        if not defined:
            break

    work = {"cosets_defined": len(parent) - 1, "coincidences": coincidences,
            "relator_scans": scans}
    return _ball_from_table(P, r, dist, find, neighbor, work)


def _ball_from_table(P: Presentation, r: int, dist: dict, find, neighbor,
                     work: dict) -> CayleyBall:
    """The radius-r ball of a closed coset table, whose vertex ids are
    renamed to their shortlex-geodesic words; dist holds the distance from
    the origin of at least every table vertex within radius r.

    One trace of each relator rotation from each ball vertex finds both the
    faces, the closed traces whose four vertices lie in the ball, and the
    completeness flags: a vertex is complete exactly when every closed trace
    from it lies in the ball."""
    gens = sorted(alphabet(P.rank), key=letter_key)
    live = sorted((x for x in dist if dist[x] <= r), key=lambda x: (dist[x], x))
    live_set = set(live)

    # canonical shortlex-geodesic representatives
    rep = {find(0): ()}
    order = deque([find(0)])
    while order:
        x = order.popleft()
        for g in gens:
            y = neighbor(x, g)
            if y in live_set and y not in rep:
                rep[y] = rep[x] + (g,)
                order.append(y)

    edges = {}
    for v in live:
        for g in gens:
            if g < 0:
                continue
            w = neighbor(v, g)
            if w in live_set:
                edges[(rep[v], g)] = (rep[v], rep[w])

    # a closed trace of an inverse relator from v is the reversal of a
    # relator trace from v, so the relator rotations find every face at v
    faces = {}
    seen_walks: dict = {}
    complete = {}
    for v in live:
        complete[rep[v]] = True
        for ri, relator in enumerate(P.relators):
            for k in range(4):
                rot = relator[k:] + relator[:k]
                path = [find(v)]
                for l in rot:
                    nxt = neighbor(path[-1], l)
                    if nxt is None:
                        break
                    path.append(nxt)
                if len(path) != 5 or path[-1] != path[0]:
                    continue
                if not live_set.issuperset(path):
                    complete[rep[v]] = False
                    continue
                steps = []
                for idx, l in enumerate(rot):
                    if l > 0:
                        steps.append(Step((rep[path[idx]], l), 1))
                    else:
                        steps.append(Step((rep[path[idx + 1]], -l), -1))
                rotations = [tuple(steps[t:] + steps[:t]) for t in range(4)]
                tagged = sorted(
                    (tuple((_idkey(st.edge), st.dir) for st in w), t)
                    for t, w in enumerate(rotations))
                key = (ri, tagged[0][0])
                if key in seen_walks:
                    continue
                t = tagged[0][1]
                # slot 0 of the stored walk reads relator position (k + t) % 4
                seen_walks[key] = Face(rotations[t], label=ri + 1,
                                       start=(-(k + t)) % 4, orient=1)
    for i, key in enumerate(sorted(seen_walks, key=_idkey)):
        faces[i] = seen_walks[key]

    base = SquareComplex([rep[v] for v in live], edges, faces)
    return CayleyBall(base, r, P, complete, work)
