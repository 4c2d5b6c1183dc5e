"""Wall machinery: painting, tracing, tree checks, collared diagrams,
complements, the wall pseudometric, windows."""

import itertools

import pytest

from squarewalls.complexes import (
    Face,
    SquareComplex,
    Step,
    generalized_boundary_length,
    shared_edge_pairs,
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
    ExtractionFailed,
    PaintingConflict,
    TracingError,
    TreeWitness,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    complement_components,
    extract_collared_diagram,
    is_embedded_tree,
    paint,
    trace_hypergraphs,
    wall_decomposition,
    wall_distance,
)


def wall_through(walls, edge_id):
    hits = [H for H in walls if edge_id in H.vertices]
    assert len(hits) == 1
    return hits[0]


def ring_with_tube(labels=(1, 1, 2, 3)):
    """annulus(3) plus a face T glued to q_0 along its two rim edges.

    q_0 and T share the opposite edges in_0 and out_0, so they are a
    strongly adjacent pair whose shared edges are not adjacent.
    """
    base = annulus(3)
    edges = dict(base.edges)
    edges["t_in"] = (("i", 1), ("o", 1))
    edges["t_out"] = (("o", 0), ("i", 0))
    faces = {
        ("q", 0): Face(base.faces[("q", 0)].walk, label=labels[2]),
        ("q", 1): Face(base.faces[("q", 1)].walk, label=labels[0]),
        ("q", 2): Face(base.faces[("q", 2)].walk, label=labels[1]),
        "T": Face((Step(("in", 0), 1), Step("t_in", 1),
                   Step(("out", 0), -1), Step("t_out", 1)), label=labels[3]),
    }
    return SquareComplex(base.vertices, edges, faces)


# -- painting -----------------------------------------------------------------


def test_paint_pair_colors_by_key():
    cx = strongly_adjacent_pair()
    painted = paint(cx)
    assert painted.colors == {"A": "red", "B": "blue"}
    assert painted.partner("A") == "B"
    assert set(painted.shared_edges("A")) == {"bm", "md"}


def test_paint_follows_labels_not_ids():
    cx = strongly_adjacent_pair(label_a=2, label_b=1)
    painted = paint(cx)
    assert painted.colors == {"A": "blue", "B": "red"}


def test_paint_regular_without_pairs():
    painted = paint(z2_ball(2))
    assert painted.pairs == ()
    assert set(painted.colors.values()) == {"regular"}


def test_paint_equal_keys_conflict():
    with pytest.raises(PaintingConflict):
        paint(strongly_adjacent_pair(label_a=5, label_b=5))


def test_paint_unlabeled_pair_rejected():
    base = strongly_adjacent_pair()
    faces = {fid: Face(f.walk, label=None) for fid, f in base.faces.items()}
    with pytest.raises(PaintingConflict):
        paint(SquareComplex(base.vertices, base.edges, faces))


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
        paint(SquareComplex(verts, edges, {**f1, **f2}))


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
    cx = SquareComplex(["v0", "v1", "v2", "v3", "x", "y"], edges, faces)
    pairs, violations = shared_edge_pairs(cx)
    assert len(pairs) == 2 and not violations
    painted = paint(cx)
    assert [(f1, f2) for f1, f2, _ in painted.pairs] == [("F", "G")]
    assert painted.colors == {"F": "red", "G": "blue", "H": "regular"}


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
    deg = cx.degrees()
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
        H = wall_through(trace_hypergraphs(painted, kind), "da")
        assert frozenset(H.edges) == expected[kind], kind


def test_red_blue_equal_standard_without_colors():
    painted = paint(z2_ball(2))
    std = trace_hypergraphs(painted, "standard")
    for kind in ("red", "blue"):
        other = trace_hypergraphs(painted, kind)
        assert [H.edges for H in other] == [H.edges for H in std]


def test_tube_share_turn_rejected():
    cx = ring_with_tube()
    painted = paint(cx)
    assert painted.colors[("q", 0)] == "red"
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
    H = wall_through(walls, "ab")
    assert H.vertices == {"ab", "cd"}
    rep = complement_components(cx, H)
    assert rep.count == 2
    assert rep.sides["b"] == rep.sides["c"]
    assert rep.sides["a"] == rep.sides["d"]
    assert rep.sides["a"] != rep.sides["b"]
    assert rep.boundary_open


# -- embedded trees and collared diagrams ---------------------------------------


def test_annulus_walls():
    cx = annulus(4)
    painted = paint(cx)
    walls = trace_hypergraphs(painted, "standard")
    assert len(walls) == 5
    circ = wall_through(walls, ("s", 0))
    assert circ.vertices == {("s", j) for j in range(4)}
    rep = is_embedded_tree(circ)
    assert not rep.tree
    assert rep.witness.kind == "cycle"
    assert len(rep.witness.segments) == 4
    comp = complement_components(cx, circ)
    assert comp.count == 2
    assert comp.sides[("i", 0)] == comp.sides[("i", 2)]
    assert comp.sides[("o", 0)] == comp.sides[("o", 3)]
    assert comp.sides[("i", 0)] != comp.sides[("o", 0)]
    assert not comp.boundary_open
    for j in range(4):
        radial = wall_through(walls, ("in", j))
        assert radial.vertices == {("in", j), ("out", j)}
        assert is_embedded_tree(radial).tree
        radial_comp = complement_components(cx, radial)
        assert radial_comp.count == 1
        assert radial_comp.boundary_open


def test_annulus_cornerless_collared_diagram():
    cx = annulus(4)
    painted = paint(cx)
    circ = wall_through(trace_hypergraphs(painted, "standard"), ("s", 0))
    coll = extract_collared_diagram(circ, painted)
    assert coll.cornerless and coll.corner is None
    assert coll.k == 4 and coll.k_prime == 0 and coll.l == 4
    assert set(coll.complex.faces) == {("q", j) for j in range(4)}
    assert generalized_boundary_length(coll.complex) == 8


def test_double_crossing_cornered_diagram():
    cx = double_crossing()
    painted = paint(cx)
    walls = trace_hypergraphs(painted, "standard")
    H = wall_through(walls, "e1")
    rep = is_embedded_tree(H)
    assert not rep.tree
    assert rep.witness.kind == "repeated-face"
    assert rep.witness.face == "F"
    assert len(rep.witness.segments) == 2
    coll = extract_collared_diagram(H, painted, rep.witness)
    assert not coll.cornerless and coll.corner == "F"
    assert coll.k == 3 and coll.k_prime == 0 and coll.l == 4
    assert set(coll.complex.faces) == {"F", "G"}
    assert generalized_boundary_length(coll.complex) == 4
    # the leftover two-vertex wall is a tree
    assert is_embedded_tree(wall_through(walls, "g1")).tree


def test_extract_requires_non_tree():
    cx, _expected = comparison()
    painted = paint(cx)
    H = wall_through(trace_hypergraphs(painted, "standard"), "da")
    assert is_embedded_tree(H).tree
    with pytest.raises(ValueError):
        extract_collared_diagram(H, painted)


def test_extract_rejects_broken_cycle():
    cx = annulus(4)
    painted = paint(cx)
    circ = wall_through(trace_hypergraphs(painted, "standard"), ("s", 0))
    segs = sorted(circ.edges)
    witness = TreeWitness("cycle", None, (segs[0], segs[0], segs[1], segs[2]))
    with pytest.raises(ExtractionFailed):
        extract_collared_diagram(circ, painted, witness)


def test_horned_collared_diagram():
    cx = ring_with_tube()
    painted = paint(cx)
    circ = wall_through(trace_hypergraphs(painted, "standard"), ("s", 0))
    coll = extract_collared_diagram(circ, painted)
    assert coll.cornerless
    assert coll.k == 3
    assert coll.horns == (("T", ("q", 0)),)
    assert coll.k_prime == 1
    assert set(coll.complex.faces) == {("q", 0), ("q", 1), ("q", 2), "T"}
    assert generalized_boundary_length(coll.complex) == 6


# -- decomposition, metric, lower bound --------------------------------------------


def test_z2_wall_lines():
    cx = z2_ball(2)
    W = wall_decomposition(paint(cx))
    # four faces in the center: two vertical and two horizontal lines,
    # identical under all three tracings
    assert len(W.walls) == 4
    vertical = wall_through(W.walls, ("h", -1, 0))
    assert vertical.vertices == {("h", -1, y) for y in (-1, 0, 1)}
    rep = W.reports[W.walls.index(vertical)]
    assert rep.count == 2
    assert rep.sides[(-1, 0)] != rep.sides[(0, 0)]
    assert rep.sides[(-2, 0)] == rep.sides[(-1, 1)]
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
    assert wall_distance(W, (0, 0), (3, 2)) == 5
    assert bfs_geodesic(cx, (0, 0), (3, 2))[0] == 5


def test_wall_distance_is_pseudometric():
    W = wall_decomposition(paint(z2_ball(3)))
    pts = [(0, 0), (1, 1), (-2, 0), (0, -3), (2, -1), (1, -2)]
    for x, y, z in itertools.permutations(pts, 3):
        assert wall_distance(W, x, y) == wall_distance(W, y, x)
        assert wall_distance(W, x, z) <= wall_distance(W, x, y) + wall_distance(W, y, z)
    for x in pts:
        assert wall_distance(W, x, x) == 0


def test_staircase_standard_walls_never_separate():
    cx, _gamma, x, y = staircase(8)
    painted = paint(cx)
    W = wall_decomposition(painted, kinds=("standard",))
    assert len(W.walls) == 16
    assert wall_distance(W, x, y) == 0
    # each standard wall pinches off one interior corner
    H = wall_through(W.walls, ("ab", 0))
    assert H.vertices == {("ab", 0), ("md", 0), ("bc", 0)}
    rep = W.reports[W.walls.index(H)]
    assert rep.count == 2
    small = [v for v in rep.sides if rep.sides[v] != rep.sides[x]]
    assert set(small) == {("b", 0), ("m", 0)}


def test_staircase_all_kinds_separate():
    cx, _gamma, x, y = staircase(8)
    painted = paint(cx)
    W = wall_decomposition(painted)
    assert len(W.walls) == 6 * 8
    assert wall_distance(W, x, y) == 4 * 8
    red = wall_through(trace_hypergraphs(painted, "red"), ("ab", 2))
    assert red.vertices == {("ab", 2), ("bm", 2), ("cd", 2)}
    blue = wall_through(trace_hypergraphs(painted, "blue"), ("md", 2))
    assert blue.vertices == {("ab", 2), ("md", 2), ("cd", 2)}


def test_lower_bound_statuses():
    # staircase with standard walls only: an honest violation
    cx, _gamma, x, y = staircase(8)
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
    (report,) = check_wall_lower_bound(W, cx, [((0, 0), (3, 2))])
    assert report.d_edge == 5 and report.bound == 0
    assert report.d_wall == 5 and report.status == "pass"


def test_lower_bound_indeterminate_on_annulus():
    cx = annulus(32)
    W = wall_decomposition(paint(cx), kinds=("standard",))
    (report,) = check_wall_lower_bound(W, cx, [(("i", 0), ("i", 16))])
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
    _d, gamma = bfs_geodesic(cx, (-5, -5), (6, 5))
    rep = check_window_crossing(cx, W, gamma)
    assert rep.geodesic_length == 21
    assert len(rep.statuses) == 7
    assert rep.all_pass


def test_windows_reject_short_or_crooked_paths():
    cx = z2_ball(11)
    W = wall_decomposition(paint(cx))
    _d, short = bfs_geodesic(cx, (0, 0), (5, 5))
    with pytest.raises(ValueError):
        check_window_crossing(cx, W, short)
    ring = annulus(40)
    W_ring = wall_decomposition(paint(ring), kinds=("standard",))
    not_geodesic = [("in", j) for j in range(21)]
    with pytest.raises(ValueError):
        check_window_crossing(ring, W_ring, not_geodesic)
