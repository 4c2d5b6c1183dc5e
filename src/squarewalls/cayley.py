"""Finite balls of the Cayley complex of a square presentation.

words_equal is a bounded van Kampen prover: breadth-first rewriting of the
boundary word by relator insertions, capped by the area bound the
isoperimetric inequality grants for a boundary of that length. build_ball
grows the ball by relator closure in the style of coset enumeration: edges
are traced generator by generator, every relator path missing a single edge
is completed, closed paths that disagree about their endpoint merge vertices
through a union-find, and the table is stabilized out to a safety margin of
two before restricting to the requested radius (a square relator cannot
identify radius-r vertices without passing through radius r+2).
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


@dataclass(frozen=True)
class WordProblemBudget:
    epsilon0: float = 0.05
    hard_cap: int = 1_000_000

    def area_cap(self, boundary_length: int, density: float) -> int:
        """Faces a minimal diagram with this boundary can have."""
        denom = 4.0 * (1.0 - 2.0 * density - self.epsilon0)
        if denom <= 0:
            raise ValueError("density + epsilon0 must stay below 1/2")
        return math.ceil(boundary_length / denom)


def _check_budget(P: Presentation, budget: WordProblemBudget):
    if P.density + budget.epsilon0 >= 0.5:
        raise ValueError("density + epsilon0 must stay below 1/2")


def _relator_variants(P: Presentation) -> tuple:
    out = []
    for r in P.relators:
        for k in range(4):
            rot = r[k:] + r[:k]
            for v in (rot, inverse_word(rot)):
                if v not in out:
                    out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class WordsEqualResult:
    status: str  # "equal" | "distinct" | "undecided"
    faces: int | None = None
    witness: tuple = ()  # (position, inserted relator variant) per face
    states: int = 0


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

    "equal" always carries a replayable witness; "distinct" means the bounded
    search space (area cap, word length cap |u·v⁻¹|+8) holds no diagram;
    "undecided" means the hard cap tripped first.
    """
    budget = budget or WordProblemBudget()
    _check_budget(P, budget)
    u, v = tuple(u), tuple(v)
    if not is_reduced(u) or not is_reduced(v):
        raise ValueError("words must be reduced")
    w0 = free_reduce(u + inverse_word(v))
    if not w0:
        return WordsEqualResult("equal", faces=0)
    cap = budget.area_cap(len(u) + len(v), P.density)
    maxlen = len(w0) + 8
    variants = _relator_variants(P)
    parents: dict = {w0: None}
    queue = deque([(w0, 0)])
    states = 0
    while queue:
        w, depth = queue.popleft()
        if depth == cap:
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
                    trail = []
                    x = nxt
                    while parents[x] is not None:
                        x, pos, used = parents[x]
                        trail.append((pos, used))
                    trail.reverse()
                    result = WordsEqualResult("equal", faces=depth + 1,
                                              witness=tuple(trail), states=states)
                    assert replay_witness(P, u, v, result.witness)
                    return result
                queue.append((nxt, depth + 1))
    return WordsEqualResult("distinct", states=states)


# -- ball construction ------------------------------------------------------------


class CayleyBall:
    """Radius-r piece of the Cayley complex.

    Vertex ids are the canonical shortlex-geodesic representative words; edge
    (w, a) runs from w to w·a for a positive letter a; faces are numbered and
    read a cyclic rotation of their relator.
    """

    def __init__(self, base: SquareComplex, radius: int,
                 presentation: Presentation, complete: dict):
        self.base = base
        self.radius = radius
        self.presentation = presentation
        self.complete = complete
        self.moves: dict = {}
        for (_, a), (src, dst) in self.base.edges.items():
            self.moves[(src, a)] = dst
            self.moves[(dst, -a)] = src

    @property
    def representatives(self) -> dict:
        return {v: v for v in self.base.vertices}

    def trace_word(self, word):
        """Vertex reached reading the word from the origin, None if the path
        leaves the ball."""
        x = ()
        for l in word:
            x = self.moves.get((x, l))
            if x is None:
                return None
        return x

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
    _check_budget(P, budget)
    gens = sorted(alphabet(P.rank), key=letter_key)
    variants = _relator_variants(P)
    grow_to = r + 2

    parent = [0]
    nbr: list[dict] = [{}]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def neighbor(x: int, g: int):
        y = nbr[find(x)].get(g)
        return None if y is None else find(y)

    def distances() -> dict:
        dist = {find(0): 0}
        queue = deque([find(0)])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = neighbor(x, g)
                if y is not None and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def merge(a: int, b: int, dist: dict) -> bool:
        queue = deque([(a, b)])
        changed = False
        while queue:
            x, y = queue.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            # keep the vertex closer to the origin as representative
            if (dist.get(y, len(parent)), y) < (dist.get(x, len(parent)), x):
                x, y = y, x
            parent[y] = x
            changed = True
            for g, z in list(nbr[y].items()):
                cur = nbr[x].get(g)
                if cur is None:
                    nbr[x][g] = find(z)
                elif find(cur) != find(z):
                    queue.append((cur, z))
        return changed

    def close_once(dist: dict) -> bool:
        changed = False
        for v in sorted(dist):
            for var in variants:
                x, i = find(v), 0
                while i < 4:
                    step = neighbor(x, var[i])
                    if step is None:
                        break
                    x, i = step, i + 1
                if i == 4:
                    if x != find(v) and merge(x, v, dist):
                        changed = True
                    continue
                y, j = find(v), 4
                while j > i + 1:
                    step = neighbor(y, -var[j - 1])
                    if step is None:
                        break
                    y, j = step, j - 1
                if j == i + 1:  # one missing edge: deduce it
                    x, y = find(x), find(y)
                    other = nbr[y].get(-var[i])
                    if other is not None:
                        # y already has a var[i]-predecessor: coincidence
                        if merge(x, other, dist):
                            changed = True
                    else:
                        nbr[x][var[i]] = y
                        nbr[y][-var[i]] = x
                        changed = True
        return changed

    while True:
        dist = distances()
        changed = False
        for v in sorted(dist, key=lambda x: (dist[x], x)):
            if dist[v] >= grow_to:
                continue
            for g in gens:
                if neighbor(v, g) is None:
                    parent.append(len(parent))
                    nbr.append({-g: v})
                    if len(parent) > budget.hard_cap:
                        raise BudgetExhausted(
                            f"more than {budget.hard_cap} vertices created")
                    nbr[find(v)][g] = len(parent) - 1
                    changed = True
        dist = distances()
        while close_once(dist):
            changed = True
            dist = distances()
        if not changed:
            break

    dist = distances()
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

    faces = {}
    seen_walks: dict = {}
    for v in live:
        for ri, relator in enumerate(P.relators):
            for k in range(4):
                rot = relator[k:] + relator[:k]
                path = [find(v)]
                for l in rot:
                    nxt = neighbor(path[-1], l)
                    if nxt is None or nxt not in live_set:
                        path = None
                        break
                    path.append(nxt)
                if path is None or path[-1] != find(v):
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
    face_corners = {}
    for fid, f in faces.items():
        for st in f.walk:
            u, w = edges[st.edge]
            face_corners.setdefault(u, set()).add(fid)
            face_corners.setdefault(w, set()).add(fid)
    complete = {}
    for v in live:
        present = len(face_corners.get(rep[v], ()))
        complete[rep[v]] = present == _incident_face_count(P, v, neighbor, find)
    return CayleyBall(base, r, P, complete)


def _incident_face_count(P, v, neighbor, find):
    """Faces of the ambient Cayley complex incident to v, read off the
    stabilized table: closed relator traces from v up to rotation and
    reversal.  No cyclically reduced length-4 word is a rotation of its own
    inverse, so the dihedral canonicalization matches the rotational face
    signature used by build_ball face for face."""
    seen = set()
    for ri, relator in enumerate(P.relators):
        for word in (relator, inverse_word(relator)):
            for k in range(4):
                rot = word[k:] + word[:k]
                path = [find(v)]
                for l in rot:
                    nxt = neighbor(path[-1], l)
                    if nxt is None:
                        break
                    path.append(nxt)
                if len(path) != 5 or path[-1] != path[0]:
                    continue
                cycle = tuple(path[:4])
                rev = tuple(reversed(cycle))
                canon = min(min(cycle[t:] + cycle[:t] for t in range(4)),
                            min(rev[t:] + rev[:t] for t in range(4)))
                seen.add((ri, canon))
    return len(seen)


# -- geodesics ---------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicsReport:
    distance: int
    paths: tuple  # tuples of edge ids
    truncated: bool


def geodesics(ball: CayleyBall, x, y, cap: int = 10_000) -> GeodesicsReport:
    """All shortest edge paths from x to y in the ball's 1-skeleton."""
    X = ball.base
    if x not in X.vertices or y not in X.vertices:
        raise ValueError("endpoints must be ball vertices")
    idx = X.skeleton
    source, target = idx.position[x], idx.position[y]
    dist, _via = idx.bfs(source)
    if dist[target] < 0:
        raise ValueError("endpoints are not connected")
    paths: list = []
    truncated = False

    def backtrack(v, suffix):
        nonlocal truncated
        if len(paths) >= cap:
            truncated = True
            return
        if v == source:
            paths.append(tuple(suffix))
            return
        for u, eid in idx.adj[v]:
            if dist[u] == dist[v] - 1:
                backtrack(u, [eid] + suffix)

    backtrack(target, [])
    return GeodesicsReport(dist[target], tuple(paths), truncated)
