"""The canonical 1-skeleton index and the one-search-per-source BFS.

_oracle_geodesic is the earlier bfs_geodesic, which rebuilt and re-sorted
the adjacency on every call and searched each pair separately;
_oracle_lower_bound is check_wall_lower_bound on top of it. Both stay here
as the reference the cached index must reproduce exactly."""

import itertools
import random
from collections import deque

import pytest

from squarewalls.cayley import build_ball
from squarewalls.complexes import SkeletonIndex, SquareComplex, _idkey
from squarewalls.fixtures import staircase, z2_ball
from squarewalls.presentation import Presentation, sample_presentation
from squarewalls.walls import (
    KINDS,
    PairBoundReport,
    WallDecomposition,
    bfs_distances,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    paint,
    wall_decomposition,
    wall_distance,
)

TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def _oracle_geodesic(X, x, y):
    adj = {v: [] for v in X.vertices}
    for eid, (u, v) in sorted(X.edges.items(), key=lambda kv: _idkey(kv[0])):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    prev = {x: None}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        if cur == y:
            break
        for nxt, eid in adj[cur]:
            if nxt not in prev:
                prev[nxt] = (cur, eid)
                queue.append(nxt)
    if y not in prev:
        raise ValueError("vertices are not connected")
    path = []
    cur = y
    while prev[cur] is not None:
        cur, eid = prev[cur]
        path.append(eid)
    path.reverse()
    return len(path), path


def _oracle_lower_bound(W, X, pairs):
    out = []
    for x, y in pairs:
        d_edge, geodesic = _oracle_geodesic(X, x, y)
        d_wall = wall_distance(W, x, y)
        bound = d_edge // 15
        if d_wall >= bound:
            status = "pass"
        else:
            gset = set(geodesic)
            bad = any(rep.count != 2 for H, rep in zip(W.walls, W.reports)
                      if H.vertices & gset)
            status = "indeterminate" if bad else "violation"
        out.append(PairBoundReport(x, y, d_edge, d_wall, bound, status))
    return out


def _sampled_ball():
    return build_ball(sample_presentation(5, 0.15, 1), 2).base


@pytest.mark.parametrize("make", [lambda: z2_ball(5), _sampled_ball],
                         ids=["z2-radius-5", "rank-5-radius-2"])
def test_geodesics_match_the_oracle_on_every_ordered_pair(make):
    X = make()
    verts = sorted(X.vertices, key=_idkey)
    for x in verts:
        tree = bfs_distances(X, x)
        assert len(tree) == len(verts)
        for y in verts:
            want = _oracle_geodesic(X, x, y)
            assert bfs_geodesic(X, x, y) == want
            assert tree.geodesic(y) == want
            assert tree[y] == want[0]


def test_lower_bound_rows_match_the_oracle_on_shuffled_pairs():
    rng = random.Random(0)
    cases = []
    X = z2_ball(5)
    cases.append((X, wall_decomposition(paint(X), KINDS)))
    S, _gamma, x, y = staircase(20)
    cases.append((S, wall_decomposition(paint(S), ("standard",))))
    for X, W in cases:
        verts = sorted(X.vertices, key=_idkey)
        pairs = list(itertools.permutations(verts, 2))
        rng.shuffle(pairs)
        rows = check_wall_lower_bound(W, X, pairs)
        assert rows == _oracle_lower_bound(W, X, pairs)
    statuses = {(r.x, r.y): r.status for r in rows}
    assert statuses[(x, y)] == statuses[(y, x)] == "violation"


def test_disconnected_pair_raises():
    X = SquareComplex(["a", "b"], {}, {}, check=False)
    with pytest.raises(ValueError):
        _oracle_geodesic(X, "a", "b")
    with pytest.raises(ValueError):
        bfs_geodesic(X, "a", "b")
    with pytest.raises(ValueError):
        check_wall_lower_bound(WallDecomposition((), ()), X, [("a", "a"), ("a", "b")])
    assert dict(bfs_distances(X, "a")) == {"a": 0}


def test_index_is_built_once_per_complex(monkeypatch):
    built = []
    build = SkeletonIndex.build.__func__

    def counting(cls, X):
        built.append(id(X))
        return build(cls, X)

    monkeypatch.setattr(SkeletonIndex, "build", classmethod(counting))
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    verts = sorted(X.vertices, key=_idkey)
    check_wall_lower_bound(W, X, [(verts[0], v) for v in verts])
    check_wall_lower_bound(W, X, [(v, verts[0]) for v in verts])
    _d, gamma = bfs_geodesic(X, (-5, -5), (6, 5))
    assert check_window_crossing(X, W, gamma).all_pass
    assert check_window_crossing(X, W, gamma).all_pass
    ball = build_ball(TORUS, 3)
    bfs_geodesic(ball.base, (), (1, 1, 2))
    bfs_geodesic(ball.base, (1,), (1, 1, 2))
    assert built == [id(X), id(ball.base)]


def test_complexes_never_share_an_index():
    X = z2_ball(3)
    assert X.skeleton is X.skeleton
    twin = z2_ball(3)
    back = SquareComplex.from_json(X.to_json())
    for other in (twin, back):
        assert other.skeleton is not X.skeleton
        assert other.skeleton == X.skeleton
    bigger = z2_ball(4)
    assert bigger.skeleton != X.skeleton
    assert bfs_geodesic(bigger, (0, 0), (4, 0))[0] == 4
    assert bfs_geodesic(X, (0, 0), (3, 0))[0] == 3
