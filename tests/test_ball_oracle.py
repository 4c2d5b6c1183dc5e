"""build_ball's deduction-stack closure against the grow-then-rescan closure
it replaced.

The oracle below is the previous closure unchanged, apart from counting its
scans: after each growth round it rescans every vertex of the table against
every relator variant and repeats until a pass changes nothing, with a full
breadth-first search after every pass. Both closures hand their table to the
same extraction step, so equal to_json() bytes mean equal tables inside the
radius, per-vertex completeness flags included.

The extraction step's completeness flags are in turn checked against an
independent per-vertex face count, which traces the inverse relator too and
tells faces apart by the table edges they use.
"""

from collections import deque

import pytest

from squarewalls import cayley
from squarewalls.cayley import build_ball
from squarewalls.presentation import (
    Presentation,
    alphabet,
    inverse_word,
    letter_key,
    sample_presentation,
)

TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def rescan_ball(P, r):
    gens = sorted(alphabet(P.rank), key=letter_key)
    variants = cayley._relator_variants(P)
    grow_to = r + 2
    scans = 0

    parent = [0]
    nbr = [{}]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def neighbor(x, g):
        y = nbr[find(x)].get(g)
        return None if y is None else find(y)

    def distances():
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

    def merge(a, b, dist):
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

    def close_once(dist):
        nonlocal scans
        changed = False
        for v in sorted(dist):
            for var in variants:
                scans += 1
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
                    if len(parent) > 10**6:
                        raise cayley.BudgetExhausted("more than 1000000 vertices created")
                    nbr[find(v)][g] = len(parent) - 1
                    changed = True
        dist = distances()
        while close_once(dist):
            changed = True
            dist = distances()
        if not changed:
            break

    dist = distances()
    return cayley._ball_from_table(P, r, dist, find, neighbor,
                                   {"relator_scans": scans})


def _incident_face_count(P, v, neighbor, find):
    """Faces of the ambient Cayley complex incident to v, read off the
    stabilized table: closed relator traces from v, keyed by the table
    edges they use up to rotation and reversal. A table edge is (x, g) for
    the step from x along a positive letter g. In a collapsed group two
    traces can pass the same vertices along different edges; the edge key
    tells those faces apart, as build_ball's walk key does."""
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
                cycle = tuple((x, l) if l > 0 else (y, -l)
                              for x, y, l in zip(path, path[1:], rot))
                rev = tuple(reversed(cycle))
                canon = min(min(cycle[t:] + cycle[:t] for t in range(4)),
                            min(rev[t:] + rev[:t] for t in range(4)))
                seen.add((ri, canon))
    return len(seen)


SAMPLED = sorted({
    # the sampled presentations of tests/test_cayley.py
    (5, 0.2, 0, 1), (5, 0.2, 0, 2), (2, 0.25, 3, 2),
    # the fixed balls of the sampled-walls benchmark; the last one has no
    # consistent painting
    (5, 0.15, 1, 2), (4, 0.1, 0, 3), (4, 0.15, 0, 3),
    # a ball whose red and blue walls raise TracingError
    (5, 0.15, 144666, 2),
    # the ball the scan-count test uses
    (6, 0.1, 149115, 2),
} | {(n, d, s, 2) for n in (3, 4, 5) for d in (0.1, 0.15, 0.2) for s in range(4)})


@pytest.mark.parametrize("radius", range(12))
def test_torus_ball_matches_rescan(radius):
    assert build_ball(TORUS, radius).to_json() == rescan_ball(TORUS, radius).to_json()


@pytest.mark.parametrize("n,d,seed,radius", SAMPLED)
def test_sampled_ball_matches_rescan(n, d, seed, radius):
    P = sample_presentation(n, d, seed)
    assert build_ball(P, radius).to_json() == rescan_ball(P, radius).to_json()


def test_work_counters_are_deterministic():
    P = sample_presentation(5, 0.15, 1)
    first, second = build_ball(P, 2).work, build_ball(P, 2).work
    assert first == second
    assert set(first) == {"cosets_defined", "coincidences", "relator_scans"}
    assert first["coincidences"] > 0 and first["cosets_defined"] > 81


def test_deduction_stack_scans_less_than_rescan():
    P = sample_presentation(6, 0.1, 149115)
    ball, oracle = build_ball(P, 2), rescan_ball(P, 2)
    assert ball.to_json() == oracle.to_json()
    # a full pass scans every table vertex against every variant
    assert oracle.work["relator_scans"] >= 8 * len(cayley._relator_variants(P))
    assert 0 < ball.work["relator_scans"] < oracle.work["relator_scans"]


CORPUS = [(TORUS, radius) for radius in range(12)] + [
    (sample_presentation(n, d, seed), radius) for n, d, seed, radius in SAMPLED]


@pytest.mark.parametrize("P,radius", CORPUS,
                         ids=[f"{P.rank}-{P.density}-{P.seed}-r{r}" for P, r in CORPUS])
def test_complete_flags_match_incident_face_count(P, radius, monkeypatch):
    tables = []
    extract = cayley._ball_from_table

    def capture(P, r, dist, find, neighbor, work):
        tables.append((find, neighbor))
        return extract(P, r, dist, find, neighbor, work)

    monkeypatch.setattr(cayley, "_ball_from_table", capture)
    ball = build_ball(P, radius)
    (find, neighbor), = tables
    corners = {}
    for fid, f in ball.base.faces.items():
        for st in f.walk:
            for u in ball.base.edges[st.edge]:
                corners.setdefault(u, set()).add(fid)
    for v, flag in ball.complete.items():
        w = ball.base.names.vertices[v]
        x = find(0)
        for l in w:
            x = neighbor(x, l)
        present = len(corners.get(v, ()))
        assert flag == (present == _incident_face_count(P, x, neighbor, find)), w
