"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q

Run from the root of a checkout; takes a few seconds.
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from squarewalls import cayley, enumeration, fulfill  # noqa: E402
from squarewalls.cli import run  # noqa: E402
from squarewalls.complexes import IsoParams  # noqa: E402
from squarewalls.fixtures import strongly_adjacent_pair, z2_ball  # noqa: E402
from squarewalls.presentation import Presentation, sample_presentation  # noqa: E402
from squarewalls.walls import check_window_crossing, paint, wall_decomposition  # noqa: E402

KINDS = ("standard", "red", "blue")
TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def cli_json(tmp_path, name, *argv):
    out = tmp_path / name
    rc = run([*argv, "--out", str(out)])
    return rc, out


@pytest.fixture
def torus_ball(tmp_path):
    pres = tmp_path / "torus.json"
    pres.write_text(TORUS.to_json())
    rc, ball = cli_json(tmp_path, "ball.json", "ball", "--in", str(pres), "--radius", "3")
    assert rc == 0
    return ball


def test_ball_with_two_outgoing_edges_is_rejected(torus_ball):
    doc = json.loads(torus_ball.read_text())
    checks.check_ball(doc)
    bad = copy.deepcopy(doc)
    # a second a1-edge leaving the identity, ending at a2
    bad["edges"].append({"id": [[], 1], "src": [], "dst": [2]})
    with pytest.raises(CheckFailed, match="two outgoing a1-edges"):
        checks.check_ball(bad)


def test_face_reading_the_wrong_word_is_rejected(torus_ball):
    doc = json.loads(torus_ball.read_text())
    doc["faces"][0]["start"] = (doc["faces"][0]["start"] + 1) % 4
    with pytest.raises(CheckFailed, match="reads"):
        checks.check_ball(doc)


def test_wall_metric_row_with_wrong_d_edge_is_rejected(tmp_path, torus_ball):
    cx = checks.check_ball(json.loads(torus_ball.read_text()))
    rc, walls = cli_json(tmp_path, "walls.json", "walls", "--in", str(torus_ball))
    assert rc == 0
    sides = checks.check_walls(cx, json.loads(walls.read_text()), KINDS)
    rc, metric = cli_json(tmp_path, "metric.csv", "wall-metric", "--in",
                          str(torus_ball), "--format", "csv")
    assert rc == 0
    rows = checks.parse_metric_csv(metric.read_text())
    checks.check_ball_metric(cx, rows, sides)
    x, y, de, dw, b, st = rows[7]
    rows[7] = (x, y, de + 1, dw, b, st)
    with pytest.raises(CheckFailed, match="d_edge"):
        checks.check_ball_metric(cx, rows, sides)


def test_z2_metric_row_with_wrong_d_edge_is_rejected(tmp_path):
    rc, metric = cli_json(tmp_path, "z2.csv", "wall-metric", "--fixture", "z2",
                          "--radius", "3", "--format", "csv")
    assert rc == 0
    rows = checks.parse_metric_csv(metric.read_text())
    checks.check_z2_metric(rows, 3)
    x, y, de, dw, b, st = rows[0]
    rows[0] = (x, y, de + 2, dw, b, st)
    with pytest.raises(CheckFailed, match="d_edge"):
        checks.check_z2_metric(rows, 3)


def test_wrong_tree_verdict_and_count_are_rejected(tmp_path):
    rc, fx = cli_json(tmp_path, "annulus.json", "fixtures", "--name", "annulus", "--k", "4")
    assert rc == 0
    cx = checks.Complex(json.loads(fx.read_text())["complex"])
    rc, walls = cli_json(tmp_path, "walls.json", "walls", "--in", str(fx),
                         "--kinds", "standard")
    assert rc == 0
    doc = json.loads(walls.read_text())
    checks.check_walls(cx, doc, ("standard",))
    cyclic = next(i for i, w in enumerate(doc["walls"]) if not w["embedded_tree"])
    bad = copy.deepcopy(doc)
    bad["walls"][cyclic]["embedded_tree"] = True
    with pytest.raises(CheckFailed, match="embedded_tree"):
        checks.check_walls(cx, bad, ("standard",))
    bad = copy.deepcopy(doc)
    bad["walls"][0]["complement_count"] += 1
    with pytest.raises(CheckFailed, match="complement count"):
        checks.check_walls(cx, bad, ("standard",))


def test_painting_conflict_naming_another_label_is_rejected(tmp_path):
    rc, pres = cli_json(tmp_path, "p.json", "sample", "--rank", "4", "--density",
                        "0.15", "--seed", "0")
    rc, ball = cli_json(tmp_path, "b.json", "ball", "--in", str(pres), "--radius", "3")
    rc, walls = cli_json(tmp_path, "w.json", "walls", "--in", str(ball))
    assert rc == 1
    cx = checks.check_ball(json.loads(ball.read_text()))
    doc = json.loads(walls.read_text())
    checks.check_painting_conflict(cx, doc)
    label = int(doc["painting_conflict"].split()[1])
    doc["painting_conflict"] = doc["painting_conflict"].replace(
        f"label {label} ", f"label {label % 3 + 1} ")
    with pytest.raises(CheckFailed, match="painting meets"):
        checks.check_painting_conflict(cx, doc)


def test_violation_with_inconsistent_edge_letter_is_rejected():
    R = list(sample_presentation(4, 0.1, 0).relators)
    params = IsoParams(d=0.1, eps=0.05)
    (v,) = enumeration.scan_local_iso(R, 1, params)
    line = json.loads(v.to_json_line())
    checks.check_violation(line, R, 0.1, 0.05)
    # shifting the start slot re-reads the word so that the doubled edge gets
    # two different letters
    line["complex"]["faces"][0]["start"] = 1
    with pytest.raises(CheckFailed, match="two letters"):
        checks.check_violation(line, R, 0.1, 0.05)


def test_brute_force_finds_exactly_the_scan():
    R = list(sample_presentation(5, 0.15, 3).relators)
    classes = list(enumeration.EnumerationCursor(1))
    found = enumeration.scan_local_iso(R, 1, IsoParams(d=0.15, eps=0.05), classes=classes)
    index = {id(Y): i for i, Y in enumerate(classes)}
    own = checks.brute_force_violations(checks.compile_classes(classes), R, 0.15, 0.05)
    assert own == {index[id(v.complex)] for v in found} and own


def test_witness_that_does_not_reduce_to_empty_is_rejected():
    u, v = (1, 2), (2, 1)
    res = cayley.words_equal(TORUS, u, v)
    assert res.status == "equal"
    assert checks.replay_witness(TORUS.relators, u, v, res.witness)
    assert not checks.replay_witness(TORUS.relators, u, v, res.witness[:-1])
    pos, var = res.witness[-1]
    flipped = res.witness[:-1] + ((pos, checks.inverse(var)),)
    assert not checks.replay_witness(TORUS.relators, u, v, flipped)


def test_z2_window_failure_is_rejected():
    X = z2_ball(11)
    W = wall_decomposition(paint(X))
    path = checks.z2_monotone_path((-5, -5), (6, 5), 11, random.Random(0))
    statuses = check_window_crossing(X, W, path).statuses
    checks.check_z2_windows(path, statuses)
    with pytest.raises(CheckFailed, match="fails"):
        checks.check_z2_windows(path, statuses[:-1] + ("fail",))


def test_monte_carlo_interval_and_exact_value_are_checked():
    Y = fulfill.AbstractComplex.wrap(strongly_adjacent_pair())
    exact = fulfill.exact_set_fulfill_probability(Y, 2, 0.25).probability
    _edges, faces = checks.class_faces(Y)
    assert abs(checks.set_fulfill_probability(faces, 2, 3) - exact) < 1e-12
    rep = fulfill.monte_carlo_set_fulfill(Y, 2, 0.25, 200, 3).to_json_dict()
    checks.check_monte_carlo(rep, 200, exact, 5.0)
    bad = dict(rep, ci_low=rep["ci_low"] - 0.01)
    with pytest.raises(CheckFailed, match="Wilson"):
        checks.check_monte_carlo(bad, 200, exact, 5.0)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_monte_carlo(rep, 200, min(1.0, exact + 0.5), 5.0)
