"""Wall queries against the per-wall scans they replaced.

oracle_wall_distance is the earlier wall_distance: one comparison per wall
of that wall's complement components, which complement_components still
computes. oracle_window_crossing is the earlier check_window_crossing: a
fresh breadth-first search for the geodesic test, then every wall
intersected with the geodesic and with every window. Both stay here as the
reference that the signatures and the per-edge crossing index must
reproduce exactly."""

import itertools
import random

import pytest

from squarewalls.cayley import build_ball
from squarewalls.fixtures import annulus, comparison, staircase, z2_ball
from squarewalls.presentation import sample_presentation
from squarewalls.walls import (
    KINDS,
    MIN_GEODESIC,
    WINDOW,
    WindowReport,
    _chain_vertices,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    complement_components,
    paint,
    wall_decomposition,
    wall_distance,
)

KIND_SETS = [("standard",), ("red",), ("blue",), KINDS]


def oracle_wall_distance(X, W):
    """d_wall(x, y) as the earlier per-wall side comparison."""
    reports = [complement_components(X, H) for H in W.walls]

    def d(x, y):
        return sum(1 for rep in reports if rep.sides[x] != rep.sides[y])
    return d


def _oracle_one_sided_wall_crosses(W, edges: set) -> bool:
    return any(rep.count != 2 for H, rep in zip(W.walls, W.reports)
               if H.vertices & edges)


def oracle_window_crossing(X, W, gamma) -> WindowReport:
    if len(gamma) < MIN_GEODESIC:
        raise ValueError(f"geodesic must have at least {MIN_GEODESIC} edges")
    gamma = [X.ids.edges[e] for e in gamma]
    verts = _chain_vertices(X, gamma)
    if X.skeleton.bfs(verts[0])[0][verts[-1]] != len(gamma):
        raise ValueError("path is not a geodesic")
    gset = set(gamma)
    single = []  # (crossing edge, wall index) for walls crossing exactly once
    for idx, H in enumerate(W.walls):
        crossings = H.vertices & gset
        if len(crossings) == 1:
            single.append((next(iter(crossings)), idx))
    statuses = []
    for i in range(len(gamma) - WINDOW + 1):
        window = set(gamma[i:i + WINDOW])
        if any(e in window for e, _idx in single):
            statuses.append("pass")
            continue
        bad = _oracle_one_sided_wall_crosses(W, window)
        statuses.append("indeterminate" if bad else "fail")
    return WindowReport(len(gamma), tuple(statuses))


def _ball(n, d, seed, r):
    return build_ball(sample_presentation(n, d, seed), r).base


CASES = {
    "z2-r7": (lambda: z2_ball(7), [KINDS]),
    "ball-4-0.1-0-r3": (lambda: _ball(4, 0.1, 0, 3), [KINDS]),
    "ball-5-0.15-1-r2": (lambda: _ball(5, 0.15, 1, 2), [KINDS]),
    "staircase-8": (lambda: staircase(8)[0], KIND_SETS),
    "comparison": (lambda: comparison()[0], KIND_SETS),
    "annulus-8": (lambda: annulus(8), KIND_SETS),
}


@pytest.mark.parametrize("case", list(CASES))
def test_wall_distance_and_crossing_index_match_the_oracle(case):
    make, kind_sets = CASES[case]
    X = make()
    for kinds in kind_sets:
        W = wall_decomposition(paint(X), kinds)
        assert W.crossing == [[i for i, H in enumerate(W.walls) if e in H.vertices]
                              for e in X.edges]
        want = oracle_wall_distance(X, W)
        for x, y in itertools.combinations(X.vertices, 2):
            assert wall_distance(W, x, y) == wall_distance(W, y, x) == want(x, y)
        assert all(wall_distance(W, x, x) == 0 for x in X.vertices)


def test_the_sampled_balls_have_walls_of_every_count():
    # the oracle cases above cover one-, two- and many-sided walls
    counts = {}
    for args in ((4, 0.1, 0, 3), (5, 0.15, 1, 2)):
        W = wall_decomposition(paint(_ball(*args)))
        counts[args] = sorted(rep.count for rep in W.reports)
        assert len(W.many_sided) == sum(c > 2 for c in counts[args])
    assert len(counts[(4, 0.1, 0, 3)]) == 60 and counts[(4, 0.1, 0, 3)][-1] == 12
    assert counts[(5, 0.15, 1, 2)][-2:] == [2, 12]
    assert all(c[0] == 1 for c in counts.values())


def test_lower_bound_statuses_match_the_oracle_scan():
    # the annulus under standard walls has one-sided walls, so it reaches
    # the indeterminate branch; the staircase under standard walls reaches
    # violations
    seen = set()
    for X, kinds in ((annulus(32), ("standard",)), (staircase(8)[0], ("standard",)),
                     (staircase(8)[0], KINDS)):
        W = wall_decomposition(paint(X), kinds)
        d = oracle_wall_distance(X, W)
        rows = check_wall_lower_bound(W, X, itertools.permutations(X.vertices, 2))
        for r in rows:
            assert r.d_wall == d(r.x, r.y)
            if r.status != "pass":
                path = set(bfs_geodesic(X, r.x, r.y)[1])
                bad = _oracle_one_sided_wall_crosses(W, path)
                assert r.status == ("indeterminate" if bad else "violation")
        seen.update(r.status for r in rows)
    assert seen == {"pass", "indeterminate", "violation"}


def _monotone_path(X, u, v, radius, rng):
    """A random monotone lattice path from u to v inside the Z² diamond,
    as edge names."""
    edge = {frozenset(X.names.vertices[w] for w in uv): X.names.edges[e]
            for e, uv in X.edges.items()}
    path, cur = [], u
    while cur != v:
        steps = []
        for axis in (0, 1):
            if cur[axis] != v[axis]:
                nxt = list(cur)
                nxt[axis] += 1 if v[axis] > cur[axis] else -1
                if abs(nxt[0]) + abs(nxt[1]) <= radius:
                    steps.append(tuple(nxt))
        nxt = rng.choice(steps)
        path.append(edge[frozenset((cur, nxt))])
        cur = nxt
    return path


def test_window_statuses_match_the_oracle_on_monotone_paths():
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    rng = random.Random(17)
    far = [(u, v) for u, v in itertools.combinations(sorted(X.names.vertices), 2)
           if abs(u[0] - v[0]) + abs(u[1] - v[1]) >= MIN_GEODESIC]
    for u, v in rng.sample(far, 50):
        path = _monotone_path(X, u, v, 11, rng)
        assert check_window_crossing(X, W, path) == oracle_window_crossing(X, W, path)


@pytest.mark.parametrize("kinds", KIND_SETS, ids=lambda k: "+".join(k))
def test_window_statuses_match_the_oracle_on_the_staircase(kinds):
    X, gamma, _x, _y = staircase(11)
    W = wall_decomposition(paint(X), kinds)
    path = [st.edge for st in gamma]
    assert check_window_crossing(X, W, path) == oracle_window_crossing(X, W, path)
