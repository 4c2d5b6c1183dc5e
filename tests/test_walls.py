"""Wall machinery: painting, tracing, tree checks, collared diagrams,
complements, the wall pseudometric, windows.

The library answers in ids; these tests name vertices, edges and faces as
the fixtures draw them and translate through each complex's name table
(cx.ids, cx.names)."""

import itertools
from collections import Counter

import pytest

from squarewalls.complexes import (
    Face,
    SquareComplex,
    Step,
    generalized_boundary_length,
)
from squarewalls.fixtures import (
    annulus,
    comparison,
    double_crossing,
    grid,
    house,
    single_square,
    staircase,
    strongly_adjacent_pair,
    z2_ball,
)
from squarewalls.walls import (
    PaintingConflict,
    TracingError,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    complement_components,
    extract_collared_diagram,
    is_embedded_tree,
    paint,
    shared_edge_pairs,
    trace_hypergraphs,
    wall_decomposition,
    wall_distance,
)


def wall_through(cx, walls, edge):
    """The one wall dual to the named edge."""
    e = cx.ids.edges[edge]
    hits = [H for H in walls if e in H.vertices]
    assert len(hits) == 1
    return hits[0]


def edge_names(cx, edge_ids) -> set:
    return {cx.names.edges[e] for e in edge_ids}


def face_names(cx, face_ids) -> set:
    return {cx.names.faces[f] for f in face_ids}


def colors_by_name(painted) -> dict:
    return {painted.base.names.faces[f]: c for f, c in enumerate(painted.colors)}


def relabeled(cx, labels):
    """cx with each face's label looked up by face name."""
    faces = {fid: Face(f.walk, labels[cx.names.faces[fid]], f.start, f.orient)
             for fid, f in cx.faces.items()}
    return SquareComplex(cx.names, cx.edges, faces)


def ring_with_tube(labels=(1, 1, 2, 3)):
    """annulus(3) plus a face T glued to q_0 along its two rim edges.

    q_0 and T share the opposite edges in_0 and out_0, so they are a
    strongly adjacent pair whose shared edges are not adjacent.
    """
    base = annulus(3)
    vn, en, _fn = base.names
    edges = {en[e]: (vn[s], vn[d]) for e, (s, d) in base.edges.items()}
    edges["t_in"] = (("i", 1), ("o", 1))
    edges["t_out"] = (("o", 0), ("i", 0))

    def walk(name):
        return tuple(Step(en[st.edge], st.dir)
                     for st in base.faces[base.ids.faces[name]].walk)

    faces = {
        ("q", 0): Face(walk(("q", 0)), label=labels[2]),
        ("q", 1): Face(walk(("q", 1)), label=labels[0]),
        ("q", 2): Face(walk(("q", 2)), label=labels[1]),
        "T": Face((Step(("in", 0), 1), Step("t_in", 1),
                   Step(("out", 0), -1), Step("t_out", 1)), label=labels[3]),
    }
    return SquareComplex.named(vn, edges, faces)


# -- painting -----------------------------------------------------------------


def test_paint_pair_colors_by_key():
    cx = strongly_adjacent_pair()
    painted = paint(cx)
    assert colors_by_name(painted) == {"A": "red", "B": "blue"}
    partner, shared = painted.mates[cx.ids.faces["A"]]
    assert partner == cx.ids.faces["B"]
    assert edge_names(cx, shared) == {"bm", "md"}


def test_paint_follows_labels_not_ids():
    cx = relabeled(strongly_adjacent_pair(), {"A": 2, "B": 1})
    painted = paint(cx)
    assert colors_by_name(painted) == {"A": "blue", "B": "red"}


def test_paint_regular_without_pairs():
    painted = paint(z2_ball(2))
    assert painted.pairs == ()
    assert set(painted.colors) == {"regular"}


def test_paint_equal_keys_conflict():
    with pytest.raises(PaintingConflict):
        paint(relabeled(strongly_adjacent_pair(), {"A": 5, "B": 5}))


def test_paint_unlabeled_pair_rejected():
    with pytest.raises(PaintingConflict):
        paint(relabeled(strongly_adjacent_pair(), {"A": None, "B": None}))


def test_paint_label_forced_both_colors():
    def square(sfx, label_a, label_b):
        e = {f"ab{sfx}": (f"a{sfx}", f"b{sfx}"), f"bc{sfx}": (f"b{sfx}", f"c{sfx}"),
             f"cd{sfx}": (f"c{sfx}", f"d{sfx}"), f"da{sfx}": (f"d{sfx}", f"a{sfx}"),
             f"bm{sfx}": (f"b{sfx}", f"m{sfx}"), f"md{sfx}": (f"m{sfx}", f"d{sfx}")}
        f = {f"A{sfx}": Face((Step(f"ab{sfx}", 1), Step(f"bm{sfx}", 1),
                              Step(f"md{sfx}", 1), Step(f"da{sfx}", 1)), label=label_a),
             f"B{sfx}": Face((Step(f"bc{sfx}", 1), Step(f"cd{sfx}", 1),
                              Step(f"md{sfx}", -1), Step(f"bm{sfx}", -1)), label=label_b)}
        return e, f
    e1, f1 = square("1", 1, 2)
    e2, f2 = square("2", 2, 3)
    edges = {**e1, **e2, "bridge": ("a1", "a2")}
    verts = {v for uv in edges.values() for v in uv}
    with pytest.raises(PaintingConflict):
        paint(SquareComplex.named(verts, edges, {**f1, **f2}))


def test_paint_overlapping_adjacencies_pick_canonical_matching():
    # F is strongly adjacent to both G and H; the default pairing keeps the
    # first pair in face-key order and leaves the loser regular
    edges = {
        "e1": ("v0", "v1"), "e2": ("v1", "v2"), "e3": ("v2", "v3"), "e4": ("v3", "v0"),
        "g3": ("v2", "x"), "g4": ("x", "v0"), "h3": ("v0", "y"), "h4": ("y", "v2"),
    }
    faces = {
        "F": Face((Step("e1", 1), Step("e2", 1), Step("e3", 1), Step("e4", 1)), label=1),
        "G": Face((Step("e1", 1), Step("e2", 1), Step("g3", 1), Step("g4", 1)), label=2),
        "H": Face((Step("e3", 1), Step("e4", 1), Step("h3", 1), Step("h4", 1)), label=3),
    }
    cx = SquareComplex.named(["v0", "v1", "v2", "v3", "x", "y"], edges, faces)
    assert len(shared_edge_pairs(cx)) == 2
    painted = paint(cx)
    fn = cx.names.faces
    assert [(fn[f1], fn[f2]) for f1, f2, _ in painted.pairs] == [("F", "G")]
    assert colors_by_name(painted) == {"F": "red", "G": "blue", "H": "regular"}


# -- tracing ------------------------------------------------------------------


FIXED = [
    comparison()[0],
    staircase(3)[0],
    z2_ball(2),
    annulus(4),
    strongly_adjacent_pair(),
    house()[0],
    grid(4, 3).complex,
]


@pytest.mark.parametrize("cx", FIXED, ids=lambda c: f"{len(c.faces)}faces")
def test_tracing_totality_and_duality(cx):
    painted = paint(cx)
    deg = Counter(st.edge for f in cx.faces.values() for st in f.walk)
    for kind in ("standard", "red", "blue"):
        walls = trace_hypergraphs(painted, kind)
        per_face = {}
        touched = {}
        for H in walls:
            assert H.kind == kind
            for e1, e2, f in H.edges:
                per_face[f] = per_face.get(f, 0) + 1
                touched[e1] = touched.get(e1, 0) + 1
                touched[e2] = touched.get(e2, 0) + 1
            assert H.carrier == frozenset(f for _a, _b, f in H.edges)
        # every face contributes exactly two segments
        assert per_face == {fid: 2 for fid in cx.faces}
        # wall-vertex degree equals the slot degree of the dual edge
        assert touched == {e: d for e, d in deg.items() if d > 0}


def test_comparison_frozen_routes():
    cx, expected = comparison()
    painted = paint(cx)
    for kind in ("standard", "red", "blue"):
        H = wall_through(cx, trace_hypergraphs(painted, kind), "da")
        en, fn = cx.names.edges, cx.names.faces
        assert frozenset((en[a], en[b], fn[f]) for a, b, f in H.edges) \
            == expected[kind], kind


def test_red_blue_equal_standard_without_colors():
    painted = paint(z2_ball(2))
    std = trace_hypergraphs(painted, "standard")
    for kind in ("red", "blue"):
        other = trace_hypergraphs(painted, kind)
        assert [H.edges for H in other] == [H.edges for H in std]


def test_tube_share_turn_rejected():
    cx = ring_with_tube()
    painted = paint(cx)
    assert painted.colors[cx.ids.faces[("q", 0)]] == "red"
    with pytest.raises(TracingError):
        trace_hypergraphs(painted, "red")
    # the standard rule does not look at the pair shape
    walls = trace_hypergraphs(painted, "standard")
    assert sum(len(H.edges) for H in walls) == 2 * len(cx.faces)


def test_single_square_walls_and_complements():
    cx = single_square().complex
    painted = paint(cx)
    walls = trace_hypergraphs(painted, "standard")
    assert len(walls) == 2
    H = wall_through(cx, walls, "ab")
    assert edge_names(cx, H.vertices) == {"ab", "cd"}
    rep = complement_components(cx, H)
    assert rep.count == 2
    side = {v: rep.sides[i] for v, i in cx.ids.vertices.items()}
    assert side["b"] == side["c"]
    assert side["a"] == side["d"]
    assert side["a"] != side["b"]
    assert rep.boundary_open


# -- embedded trees and collared diagrams ---------------------------------------


def test_annulus_walls():
    cx = annulus(4)
    painted = paint(cx)
    walls = trace_hypergraphs(painted, "standard")
    assert len(walls) == 5
    circ = wall_through(cx, walls, ("s", 0))
    assert edge_names(cx, circ.vertices) == {("s", j) for j in range(4)}
    rep = is_embedded_tree(circ)
    assert not rep.tree
    assert rep.witness.kind == "cycle"
    assert len(rep.witness.segments) == 4
    comp = complement_components(cx, circ)
    assert comp.count == 2
    side = {v: comp.sides[i] for v, i in cx.ids.vertices.items()}
    assert side[("i", 0)] == side[("i", 2)]
    assert side[("o", 0)] == side[("o", 3)]
    assert side[("i", 0)] != side[("o", 0)]
    assert not comp.boundary_open
    for j in range(4):
        radial = wall_through(cx, walls, ("in", j))
        assert edge_names(cx, radial.vertices) == {("in", j), ("out", j)}
        assert is_embedded_tree(radial).tree
        radial_comp = complement_components(cx, radial)
        assert radial_comp.count == 1
        assert radial_comp.boundary_open


def test_annulus_cornerless_collared_diagram():
    cx = annulus(4)
    painted = paint(cx)
    circ = wall_through(cx, trace_hypergraphs(painted, "standard"), ("s", 0))
    coll = extract_collared_diagram(circ, painted)
    assert coll.cornerless and coll.corner is None
    assert coll.k == 4 and coll.k_prime == 0 and coll.l == 4
    assert set(coll.complex.names.faces) == {("q", j) for j in range(4)}
    assert generalized_boundary_length(coll.complex) == 8


def test_double_crossing_cornered_diagram():
    cx = double_crossing()
    painted = paint(cx)
    walls = trace_hypergraphs(painted, "standard")
    H = wall_through(cx, walls, "e1")
    rep = is_embedded_tree(H)
    assert not rep.tree
    assert rep.witness.kind == "repeated-face"
    assert rep.witness.face == cx.ids.faces["F"]
    assert len(rep.witness.segments) == 2
    coll = extract_collared_diagram(H, painted)
    assert not coll.cornerless and coll.corner == cx.ids.faces["F"]
    assert coll.k == 3 and coll.k_prime == 0 and coll.l == 4
    assert set(coll.complex.names.faces) == {"F", "G"}
    assert generalized_boundary_length(coll.complex) == 4
    # the leftover two-vertex wall is a tree
    assert is_embedded_tree(wall_through(cx, walls, "g1")).tree


def test_extract_requires_non_tree():
    cx, _expected = comparison()
    painted = paint(cx)
    H = wall_through(cx, trace_hypergraphs(painted, "standard"), "da")
    assert is_embedded_tree(H).tree
    with pytest.raises(ValueError):
        extract_collared_diagram(H, painted)


def test_horned_collared_diagram():
    cx = ring_with_tube()
    painted = paint(cx)
    circ = wall_through(cx, trace_hypergraphs(painted, "standard"), ("s", 0))
    coll = extract_collared_diagram(circ, painted)
    assert coll.cornerless
    assert coll.k == 3
    fn = cx.names.faces
    assert tuple((fn[p], fn[b]) for p, b in coll.horns) == (("T", ("q", 0)),)
    assert coll.k_prime == 1
    assert set(coll.complex.names.faces) == {("q", 0), ("q", 1), ("q", 2), "T"}
    assert generalized_boundary_length(coll.complex) == 6


# -- decomposition, metric, lower bound --------------------------------------------


def test_z2_wall_lines():
    cx = z2_ball(2)
    W = wall_decomposition(paint(cx))
    # four faces in the center: two vertical and two horizontal lines,
    # identical under all three tracings
    assert len(W.walls) == 4
    vertical = wall_through(cx, W.walls, ("h", -1, 0))
    assert edge_names(cx, vertical.vertices) == {("h", -1, y) for y in (-1, 0, 1)}
    rep = complement_components(cx, vertical)
    assert rep.count == W.reports[W.walls.index(vertical)].count == 2
    side = {v: rep.sides[i] for v, i in cx.ids.vertices.items()}
    assert side[(-1, 0)] != side[(0, 0)]
    assert side[(-2, 0)] == side[(-1, 1)]
    for H in W.walls:
        assert is_embedded_tree(H).tree


def test_one_complement_search_per_distinct_wall(monkeypatch):
    calls = []

    def counted(X, H):
        calls.append(H.vertices)
        return complement_components(X, H)

    monkeypatch.setattr("squarewalls.walls.complement_components", counted)
    painted = paint(z2_ball(7))
    W = wall_decomposition(painted)
    traced = [H for kind in ("standard", "red", "blue")
              for H in trace_hypergraphs(painted, kind)]
    assert len(traced) == 72
    # the three tracings agree on Z^2, so each wall is searched once
    assert len(W.walls) == len(calls) == 24
    assert calls == [H.vertices for H in W.walls]


def test_z2_wall_distance_example():
    cx = z2_ball(5)
    W = wall_decomposition(paint(cx))
    x, y = cx.ids.vertices[(0, 0)], cx.ids.vertices[(3, 2)]
    assert wall_distance(W, x, y) == 5
    assert bfs_geodesic(cx, x, y)[0] == 5


def test_wall_distance_is_pseudometric():
    cx = z2_ball(3)
    W = wall_decomposition(paint(cx))
    pts = [cx.ids.vertices[v]
           for v in [(0, 0), (1, 1), (-2, 0), (0, -3), (2, -1), (1, -2)]]
    for x, y, z in itertools.permutations(pts, 3):
        assert wall_distance(W, x, y) == wall_distance(W, y, x)
        assert wall_distance(W, x, z) <= wall_distance(W, x, y) + wall_distance(W, y, z)
    for x in pts:
        assert wall_distance(W, x, x) == 0


def staircase_ends(n):
    """staircase(n)'s complex and the ids of its two ends."""
    cx, _gamma, x, y = staircase(n)
    return cx, cx.ids.vertices[x], cx.ids.vertices[y]


def test_staircase_standard_walls_never_separate():
    cx, x, y = staircase_ends(8)
    painted = paint(cx)
    W = wall_decomposition(painted, kinds=("standard",))
    assert len(W.walls) == 16
    assert wall_distance(W, x, y) == 0
    # each standard wall pinches off one interior corner
    H = wall_through(cx, W.walls, ("ab", 0))
    assert edge_names(cx, H.vertices) == {("ab", 0), ("md", 0), ("bc", 0)}
    rep = complement_components(cx, H)
    assert rep.count == W.reports[W.walls.index(H)].count == 2
    small = [v for v in cx.vertices if rep.sides[v] != rep.sides[x]]
    assert {cx.names.vertices[v] for v in small} == {("b", 0), ("m", 0)}


def test_staircase_all_kinds_separate():
    cx, x, y = staircase_ends(8)
    painted = paint(cx)
    W = wall_decomposition(painted)
    assert len(W.walls) == 6 * 8
    assert wall_distance(W, x, y) == 4 * 8
    red = wall_through(cx, trace_hypergraphs(painted, "red"), ("ab", 2))
    assert edge_names(cx, red.vertices) == {("ab", 2), ("bm", 2), ("cd", 2)}
    blue = wall_through(cx, trace_hypergraphs(painted, "blue"), ("md", 2))
    assert edge_names(cx, blue.vertices) == {("ab", 2), ("md", 2), ("cd", 2)}


def test_lower_bound_statuses():
    # staircase with standard walls only: an honest violation
    cx, x, y = staircase_ends(8)
    painted = paint(cx)
    W_std = wall_decomposition(painted, kinds=("standard",))
    (report,) = check_wall_lower_bound(W_std, cx, [(x, y)])
    assert report.d_edge == 16 and report.bound == 1 and report.d_wall == 0
    assert report.status == "violation"
    # all three kinds: passes with room to spare
    W_all = wall_decomposition(painted)
    (report,) = check_wall_lower_bound(W_all, cx, [(x, y)])
    assert report.d_wall == 32 and report.status == "pass"


def test_lower_bound_pass_on_grid_ball():
    cx = z2_ball(5)
    W = wall_decomposition(paint(cx))
    (report,) = check_wall_lower_bound(
        W, cx, [(cx.ids.vertices[(0, 0)], cx.ids.vertices[(3, 2)])])
    assert report.d_edge == 5 and report.bound == 0
    assert report.d_wall == 5 and report.status == "pass"


def test_lower_bound_indeterminate_on_annulus():
    cx = annulus(32)
    W = wall_decomposition(paint(cx), kinds=("standard",))
    (report,) = check_wall_lower_bound(
        W, cx, [(cx.ids.vertices[("i", 0)], cx.ids.vertices[("i", 16)])])
    assert report.d_edge == 16 and report.bound == 1 and report.d_wall == 0
    assert report.status == "indeterminate"


# -- geodesic windows ---------------------------------------------------------------


def test_windows_fail_with_standard_walls_only():
    cx, gamma, _x, _y = staircase(11)
    painted = paint(cx)
    W = wall_decomposition(painted, kinds=("standard",))
    rep = check_window_crossing(cx, W, [st.edge for st in gamma])
    assert rep.geodesic_length == 22
    assert len(rep.statuses) == 8
    assert set(rep.statuses) == {"fail"}
    assert not rep.all_pass


def test_windows_pass_with_all_kinds():
    cx, gamma, _x, _y = staircase(11)
    painted = paint(cx)
    W = wall_decomposition(painted)
    rep = check_window_crossing(cx, W, [st.edge for st in gamma])
    assert rep.all_pass


def test_windows_pass_on_grid_ball():
    cx = z2_ball(11)
    W = wall_decomposition(paint(cx))
    v = cx.ids.vertices
    _d, gamma = bfs_geodesic(cx, v[(-5, -5)], v[(6, 5)])
    rep = check_window_crossing(cx, W, [cx.names.edges[e] for e in gamma])
    assert rep.geodesic_length == 21
    assert len(rep.statuses) == 7
    assert rep.all_pass


def test_windows_reject_short_or_crooked_paths():
    cx = z2_ball(11)
    W = wall_decomposition(paint(cx))
    _d, short = bfs_geodesic(cx, cx.ids.vertices[(0, 0)], cx.ids.vertices[(5, 5)])
    with pytest.raises(ValueError):
        check_window_crossing(cx, W, [cx.names.edges[e] for e in short])
    ring = annulus(40)
    W_ring = wall_decomposition(paint(ring), kinds=("standard",))
    not_geodesic = [("in", j) for j in range(21)]
    with pytest.raises(ValueError):
        check_window_crossing(ring, W_ring, not_geodesic)
