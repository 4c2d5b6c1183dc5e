import dataclasses
import json
import random

import pytest

from squarewalls import fixtures
from squarewalls.cayley import build_ball
from squarewalls.complexes import (
    ComplexStructureError,
    Diagram,
    Face,
    IsoParams,
    SquareComplex,
    Step,
    build_quotient,
    cancellation,
    check_generalized_iso,
    generalized_boundary_length,
    shared_edge_pairs,
    slot_table,
)
from squarewalls.presentation import sample_presentation


def named_complexes():
    out = [
        ("single", fixtures.single_square().complex),
        ("strip", fixtures.edge_sharing_pair()),
        ("sa_pair", fixtures.strongly_adjacent_pair()),
        ("three_share", fixtures.three_sharing_pair()),
        ("grid33", fixtures.grid(3, 3).complex),
        ("annulus4", fixtures.annulus(4)),
        ("annulus5", fixtures.annulus(5)),
        ("comparison", fixtures.comparison()[0]),
        ("house", fixtures.house()[0]),
        ("three_roof", fixtures.three_roof()[0]),
        ("double_crossing", fixtures.double_crossing()),
        ("special_pairs", fixtures.special_pairs()),
        ("horn_overlap", fixtures.horn_overlap()[0]),
        ("staircase3", fixtures.staircase(3)[0]),
        ("z2_r3", fixtures.z2_ball(3)),
    ]
    return out


# -- boundary length and cancellation ----------------------------------------


def test_measurement_examples():
    cases = [
        (fixtures.single_square().complex, 4, 0),
        (fixtures.edge_sharing_pair(), 6, 1),
        (fixtures.strongly_adjacent_pair(), 4, 2),
        (fixtures.three_sharing_pair(), 2, 3),
    ]
    for cx, bt, can in cases:
        assert generalized_boundary_length(cx) == bt
        assert cancellation(cx) == can


def test_identity_on_fixtures():
    # bt = 4F - 2*Cancel = 2E - 4F, and bt is even, on every named shape
    for name, cx in named_complexes():
        f = len(cx.faces)
        bt = generalized_boundary_length(cx)
        can = cancellation(cx)
        assert bt == 4 * f - 2 * can, name
        assert bt == 2 * len(cx.edges) - 4 * f, name
        assert bt % 2 == 0, name


def test_face_subset_measurement():
    cx = fixtures.strongly_adjacent_pair()
    assert generalized_boundary_length(cx, ["A"]) == 4
    assert cancellation(cx, ["A"]) == 0
    assert generalized_boundary_length(cx, ["A", "B"]) == 4
    ball = fixtures.z2_ball(2)
    sub = [("f", 0, 0), ("f", 0, -1)]  # two faces sharing one edge
    assert generalized_boundary_length(ball, sub) == 6
    assert cancellation(ball, sub) == 1


def test_z2_ball_shape():
    for r in range(1, 7):
        ball = fixtures.z2_ball(r)
        assert len(ball.vertices) == 2 * r * r + 2 * r + 1
    ball = fixtures.z2_ball(3)
    # no strongly adjacent pairs in the grid
    strong, violating = shared_edge_pairs(ball)
    assert strong == [] and violating == []


def test_annulus_counts():
    for k in (3, 4, 6):
        ring = fixtures.annulus(k)
        assert len(ring.faces) == k
        assert generalized_boundary_length(ring) == 2 * k
        assert cancellation(ring) == k


# -- random quotient gluings --------------------------------------------------


def test_identity_on_random_quotients():
    rng = random.Random(7)
    built = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = []
        for _k in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(slots, 2) if rng.random() < 0.9 else (
                rng.choice(slots), rng.choice(slots))
            idents.append((a, b, rng.choice((1, -1))))
        cx = build_quotient(n, idents)
        if cx is None:
            continue
        built += 1
        f = len(cx.faces)
        assert generalized_boundary_length(cx) == 4 * f - 2 * cancellation(cx)
        assert generalized_boundary_length(cx) % 2 == 0
    assert built > 100  # the generator must actually exercise the identity


def test_build_quotient_torus():
    # one face, walk e1 e2 e1^-1 e2^-1: slot2 = slot0 reversed, slot3 = slot1 reversed
    cx = build_quotient(1, [((0, 0), (0, 2), -1), ((0, 1), (0, 3), -1)])
    assert cx is not None
    assert len(cx.vertices) == 1
    assert len(cx.edges) == 2
    assert generalized_boundary_length(cx) == 0
    assert cancellation(cx) == 2


def test_quotients_share_their_id_strings():
    a = build_quotient(1, [((0, 0), (0, 2), -1), ((0, 1), (0, 3), -1)])
    b = build_quotient(2, [((0, 1), (1, 3), 1)])
    in_b = {x: x for x in b.vertices | set(b.edges)}
    for x in a.vertices | set(a.edges):
        assert in_b[x] is x


def test_quotients_share_frozen_faces():
    # two squares glued slot by slot the same way have equal walks: with
    # equal labels one Face object serves both, across quotients too
    glue = [((0, j), (1, j), 1) for j in range(4)]
    a = build_quotient(2, glue, labels=[1, 1])
    b = build_quotient(2, glue, labels=[1, 1])
    assert a.faces[0] is a.faces[1] is b.faces[0] is b.faces[1]
    assert a.vertices is b.vertices
    c = build_quotient(2, glue, labels=[1, 2])
    assert c.faces[0] is a.faces[0]
    assert c.faces[1] is not a.faces[1]
    assert c.faces[1] == Face(a.faces[0].walk, label=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.faces[0].label = 2
    assert a.faces[0].label == b.faces[1].label == 1


def test_cancellation_closed_form_on_fixtures_and_a_sampled_ball():
    # Cancel(Y) = 4|Y| - |E| and bt(Y) = 2|E| - 4|Y| against the per-edge
    # degree sums, bare edges (degree 0) included
    complexes = [cx for _name, cx in named_complexes()]
    complexes += [D.complex for _name, D in fixtures.planar_fixtures()]
    complexes += [fixtures.make_fixture(name) for name in fixtures.REGISTRY]
    ball = build_ball(sample_presentation(4, 0.15, 3), 2).base
    assert ball.faces and 0 in ball.degrees().values()
    complexes.append(ball)
    for cx in complexes:
        assert cancellation(cx) == sum(d - 1 for d in cx.degrees().values())
        assert generalized_boundary_length(cx) \
            == sum(2 - d for d in cx.degrees().values())


def test_build_quotient_fold_rejected():
    assert build_quotient(1, [((0, 0), (0, 0), -1)]) is None


def test_build_quotient_adjacent_fold():
    # folding slot0 onto slot1 reversed leaves a 3-edge pillow corner
    cx = build_quotient(1, [((0, 0), (0, 1), -1)])
    assert cx is not None
    assert len(cx.edges) == 3
    assert generalized_boundary_length(cx) == 2
    assert cancellation(cx) == 1


def test_build_quotient_disconnected_rejected():
    assert build_quotient(2, []) is None


def test_slot_table_first_named_root_wins_and_base_is_kept():
    # slot 5 joins slot 0 reversed, then slot 2 joins slot 5 the same way:
    # all three carry root 0, the first-named slot of the first union
    base = slot_table(2, [((0, 0), (1, 1), -1)])
    assert base == ([0, 1, 2, 3, 4, 0, 6, 7], [1, 1, 1, 1, 1, -1, 1, 1])
    grown = slot_table(2, [((1, 1), (0, 2), 1)], base)
    assert grown == ([0, 1, 0, 3, 4, 0, 6, 7], [1, 1, -1, 1, 1, -1, 1, 1])
    assert base == ([0, 1, 2, 3, 4, 0, 6, 7], [1, 1, 1, 1, 1, -1, 1, 1])
    # a base of tuples, as enumeration hands tables on, extends the same way
    assert slot_table(2, [((1, 1), (0, 2), 1)], tuple(map(tuple, base))) == grown
    # slot 0 against slot 2: same class, now with a contradicting sign
    assert slot_table(2, [((0, 0), (0, 2), 1)], grown) is None
    assert slot_table(2, [((0, 0), (0, 2), -1)], grown) == grown
    with pytest.raises(ValueError):
        slot_table(1, [((0, 0), (0, 1), 0)])


# -- planar agreement ---------------------------------------------------------


def test_planar_fixture_agreement():
    fl = fixtures.planar_fixtures()
    assert len(fl) == 20
    for name, diag in fl:
        assert generalized_boundary_length(diag.complex) == diag.boundary_length, name


# -- isoperimetric checks -----------------------------------------------------


def test_check_generalized_iso_examples():
    p = IsoParams(d=0.3, eps=0.01)
    rep = check_generalized_iso(fixtures.strongly_adjacent_pair(), p)
    assert not rep.violation
    assert rep.cancel == 2
    assert rep.cancel_threshold == pytest.approx(2.48)
    assert rep.boundary_tilde == 4
    assert rep.boundary_form_pass  # 4 >= 3.12

    rep = check_generalized_iso(fixtures.three_sharing_pair(), p)
    assert rep.violation  # 3 > 2.48
    assert rep.cancel == 3
    assert not rep.boundary_form_pass  # 2 < 3.12

    for d in (0.05, 0.25, 0.45):
        rep = check_generalized_iso(fixtures.single_square().complex,
                                    IsoParams(d=d, eps=0.01))
        assert not rep.violation  # Cancel = 0


def test_generalized_iso_face_subset():
    cx = fixtures.special_pairs()
    rep = check_generalized_iso(cx, IsoParams(d=0.3, eps=0.01), face_ids=["A", "B"])
    assert rep.cancel == 2 and rep.face_count == 2


# -- strong adjacency and horns -----------------------------------------------


def test_shared_edge_pairs():
    strong, violating = shared_edge_pairs(fixtures.strongly_adjacent_pair())
    assert strong == [("A", "B", ("bm", "md"))]
    assert violating == []

    strong, violating = shared_edge_pairs(fixtures.three_sharing_pair())
    assert strong == []
    assert violating == [("F", "G", ("e1", "e2", "e3"))]

    strong, violating = shared_edge_pairs(fixtures.grid(3, 2).complex)
    assert strong == [] and violating == []

    strong, violating = shared_edge_pairs(fixtures.special_pairs())
    assert strong == [("A", "B", ("bm", "md"))]
    assert violating == []


# -- structure validation -----------------------------------------------------


def test_validation_errors():
    with pytest.raises(ComplexStructureError):
        SquareComplex("ab", {"e": ("a", "zz")}, {})
    with pytest.raises(ComplexStructureError):  # unknown edge in walk
        SquareComplex(
            "ab", {"e": ("a", "b")},
            {"f": Face((Step("x", 1), Step("e", -1), Step("e", 1), Step("e", -1)))},
        )
    with pytest.raises(ComplexStructureError):  # walk does not chain
        fixtures_cx = fixtures.single_square().complex
        SquareComplex(
            fixtures_cx.vertices, fixtures_cx.edges,
            {"f": Face((Step("ab", 1), Step("bc", -1), Step("cd", 1), Step("da", 1)))},
        )
    with pytest.raises(ComplexStructureError):  # disconnected 1-skeleton
        SquareComplex("abcd", {"e1": ("a", "b"), "e2": ("c", "d")}, {})
    green = json.loads(fixtures.single_square().complex.to_json())
    green["faces"][0]["color"] = "green"
    with pytest.raises(ComplexStructureError):
        SquareComplex.from_json(json.dumps(green))
    with pytest.raises(ComplexStructureError):
        Face((Step("a", 1), Step("b", 1), Step("c", 1), Step("d", 1)), start=4)


def test_diagram_boundary_must_chain():
    cx = fixtures.single_square().complex
    with pytest.raises(ComplexStructureError):
        Diagram(cx, (Step("ab", 1), Step("cd", 1)))


def test_face_slot_maps():
    f = Face((Step("a", 1), Step("b", 1), Step("c", 1), Step("d", 1)),
             start=2, orient=-1)
    assert [f.position_of_slot(j) for j in range(4)] == [2, 1, 0, 3]


def test_sa_pair_internal_vertex():
    cx = fixtures.strongly_adjacent_pair()
    boundary_verts = {v for st in fixtures.strongly_adjacent_diagram().boundary
                      for v in (cx.step_tail(st), cx.step_head(st))}
    assert set(cx.vertices) - boundary_verts == {"m"}


# -- serialization ------------------------------------------------------------


@pytest.mark.parametrize("cx", [
    fixtures.comparison()[0],
    fixtures.grid(2, 2).complex,
    fixtures.staircase(2)[0],
    fixtures.annulus(4),
    fixtures.double_crossing(),
])
def test_json_roundtrip(cx):
    blob = cx.to_json()
    back = SquareComplex.from_json(blob)
    assert back.vertices == cx.vertices
    assert back.edges == cx.edges
    assert back.faces == cx.faces
    assert back.to_json() == blob
