"""The 1-skeleton index and the one-search-per-source BFS.

_oracle_geodesic is the earlier bfs_geodesic, which rebuilt and re-sorted
the adjacency on every call and searched each pair separately, on vertex
and edge names; _oracle_lower_bound is check_wall_lower_bound on top of it.
Both stay here as the reference the cached index on integer ids must
reproduce exactly, once its ids are read back as names."""

import itertools
import random
from collections import deque

import pytest

from squarewalls.cayley import build_ball
from squarewalls.complexes import ComplexStructureError, SkeletonIndex, SquareComplex, _idkey
from squarewalls.fixtures import staircase, z2_ball
from squarewalls.presentation import Presentation, sample_presentation
from squarewalls.walls import (
    KINDS,
    PairBoundReport,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    paint,
    wall_decomposition,
    wall_distance,
)

TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def _oracle_geodesic(X, x, y):
    """The geodesic from vertex name x to y, as edge names."""
    vn, en, _fn = X.names
    named = {en[e]: (vn[u], vn[v]) for e, (u, v) in X.edges.items()}
    adj = {v: [] for v in vn}
    for eid, (u, v) in sorted(named.items(), key=lambda kv: _idkey(kv[0])):
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
    vn = X.names.vertices
    out = []
    for x, y in pairs:
        d_edge, geodesic = _oracle_geodesic(X, vn[x], vn[y])
        d_wall = wall_distance(W, x, y)
        bound = d_edge // 15
        if d_wall >= bound:
            status = "pass"
        else:
            gset = {X.ids.edges[e] for e in geodesic}
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
    vn, en = X.names.vertices, X.names.edges
    for x in X.vertices:
        dist = X.skeleton.tree(x)[0]
        assert len(dist) == len(X.vertices)
        for y in X.vertices:
            want = _oracle_geodesic(X, vn[x], vn[y])
            d, path = bfs_geodesic(X, x, y)
            assert (d, [en[e] for e in path]) == want
            assert dist[y] == want[0]


def test_lower_bound_rows_match_the_oracle_on_shuffled_pairs():
    rng = random.Random(0)
    cases = []
    X = z2_ball(5)
    cases.append((X, wall_decomposition(paint(X), KINDS)))
    S, _gamma, x, y = staircase(20)
    x, y = S.ids.vertices[x], S.ids.vertices[y]
    cases.append((S, wall_decomposition(paint(S), ("standard",))))
    for X, W in cases:
        pairs = list(itertools.permutations(X.vertices, 2))
        rng.shuffle(pairs)
        rows = check_wall_lower_bound(W, X, pairs)
        assert rows == _oracle_lower_bound(W, X, pairs)
    statuses = {(r.x, r.y): r.status for r in rows}
    assert statuses[(x, y)] == statuses[(y, x)] == "violation"


def test_disconnected_pair_raises():
    # construction refuses a disconnected complex, so every pair of vertices
    # has a geodesic and only an id the complex lacks has no distance; a
    # name the complex lacks has no id
    with pytest.raises(ComplexStructureError):
        SquareComplex.named(["a", "b"], {}, {})
    X = z2_ball(2)
    with pytest.raises(KeyError):
        X.ids.vertices[(9, 9)]
    W = wall_decomposition(paint(X), ())
    origin, V = X.ids.vertices[(0, 0)], len(X.vertices)
    # an id past the end and a negative one alike: -1 and -V would otherwise
    # index from the end and answer for vertices V-1 and 0
    for outside in (V, -1, -V):
        for x, y in ((outside, origin), (origin, outside)):
            with pytest.raises(IndexError):
                bfs_geodesic(X, x, y)
            with pytest.raises(IndexError):
                check_wall_lower_bound(W, X, [(x, x), (x, y)])
            with pytest.raises(IndexError):
                wall_distance(W, x, y)
        with pytest.raises(IndexError):
            X.skeleton.tree(outside)
    dist = X.skeleton.tree(origin)[0]
    assert len(dist) == len(X.vertices) and min(dist) >= 0
    assert X.ids.vertices.get((9, 9)) is None


def test_index_is_built_once_per_complex(monkeypatch):
    built = []
    build = SkeletonIndex.build.__func__

    def counting(cls, X):
        built.append(id(X))
        return build(cls, X)

    monkeypatch.setattr(SkeletonIndex, "build", classmethod(counting))
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    check_wall_lower_bound(W, X, [(0, v) for v in X.vertices])
    check_wall_lower_bound(W, X, [(v, 0) for v in X.vertices])
    v = X.ids.vertices
    _d, gamma = bfs_geodesic(X, v[(-5, -5)], v[(6, 5)])
    gamma = [X.names.edges[e] for e in gamma]
    assert check_window_crossing(X, W, gamma).all_pass
    assert check_window_crossing(X, W, gamma).all_pass
    ball = build_ball(TORUS, 3)
    w = ball.base.ids.vertices
    bfs_geodesic(ball.base, w[()], w[(1, 1, 2)])
    bfs_geodesic(ball.base, w[(1,)], w[(1, 1, 2)])
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
    v, w = bigger.ids.vertices, X.ids.vertices
    assert bfs_geodesic(bigger, v[(0, 0)], v[(4, 0)])[0] == 4
    assert bfs_geodesic(X, w[(0, 0)], w[(3, 0)])[0] == 3


def test_a_remembered_tree_stays_with_its_complex():
    big, small = z2_ball(11), z2_ball(10)
    source = 0  # the same id in both balls, whose trees differ in size
    big_tree = big.skeleton.tree(source)
    assert big.skeleton.last[0][0] == source
    small_tree = small.skeleton.tree(source)
    assert len(small_tree[0]) == len(small.vertices) < len(big_tree[0])
    assert small_tree == small.skeleton.bfs(source)
    vn, en = small.names.vertices, small.names.edges
    for y in small.vertices:
        d, path = bfs_geodesic(small, source, y)
        assert (d, [en[e] for e in path]) == _oracle_geodesic(small, vn[source], vn[y])
    assert big.skeleton.last[0][0] == source
    assert big.skeleton.last[0][1] == big_tree


def test_a_crooked_path_from_a_remembered_source_is_refused():
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    v, en = X.ids.vertices, X.names.edges
    corners = [(-5, 0)] + [(x, 0) for x in range(-4, 6)] + [(5, y) for y in range(1, 6)]
    corners += [(x, 5) for x in range(4, -2, -1)]  # back west: 21 edges, 9 apart
    edge = {frozenset(uv): e for e, uv in X.edges.items()}
    crooked = [en[edge[frozenset((v[a], v[b]))]] for a, b in zip(corners, corners[1:])]
    assert len(crooked) == 21
    X.skeleton.tree(v[(-5, 0)])
    assert X.skeleton.last[0][0] == v[(-5, 0)]
    with pytest.raises(ValueError, match="path is not a geodesic"):
        check_window_crossing(X, W, crooked)


def test_searches_once_per_source(monkeypatch):
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    calls = []
    bfs = SkeletonIndex.bfs

    def counting(self, source):
        calls.append(source)
        return bfs(self, source)

    monkeypatch.setattr(SkeletonIndex, "bfs", counting)
    # criterion 04's far pairs, grouped by source: a geodesic and its window
    # check from one source share one search
    ids, en = X.ids.vertices, X.names.edges
    far = [(u, v) for u, v in itertools.combinations(sorted(X.names.vertices), 2)
           if abs(u[0] - v[0]) + abs(u[1] - v[1]) >= 21]
    assert len(far) == 810
    for u, v in far:
        _d, path = bfs_geodesic(X, ids[u], ids[v])
        assert check_window_crossing(X, W, [en[e] for e in path]).all_pass
    assert len(calls) == len(set(calls)) == 44
    calls.clear()
    check_wall_lower_bound(W, X, itertools.combinations(X.vertices, 2))
    assert calls == list(X.vertices)[:-1]
