import csv
import io
import json

import pytest

from squarewalls import cli
from squarewalls.cayley import build_ball
from squarewalls.cli import run
from squarewalls.complexes import Face, SquareComplex, Step, build_quotient
from squarewalls.enumeration import EnumerationCursor
from squarewalls.fixtures import make_fixture
from squarewalls.fulfill import AbstractComplex
from squarewalls.presentation import Presentation

TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def read(path):
    with open(path) as fh:
        return fh.read()


def jrun(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    rc = run([*argv, "--out", str(out)])
    return rc, json.loads(read(out))


def test_sample_artifact(tmp_path):
    rc, doc = jrun(tmp_path, "sample", "--rank", "3", "--density", "0.3",
                   "--seed", "7")
    assert rc == 0
    assert doc["version"] and doc["seed"] == 7
    assert doc["config"]["command"] == "sample"
    assert "threads" not in doc["config"]
    assert len(doc["presentation"]["relators"]) == 6
    P = Presentation.from_json(json.dumps(doc["presentation"]))
    assert P.rank == 3 and len(P.relators) == 6


def test_artifacts_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["sample", "--rank", "2", "--density", "0.25", "--seed", "3"]
    assert run([*argv, "--out", str(a)]) == 0
    assert run([*argv, "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_fixtures_roundtrip(tmp_path):
    rc, doc = jrun(tmp_path, "fixtures", "--name", "z2", "--radius", "3")
    assert rc == 0
    X = SquareComplex.from_json(json.dumps(doc["complex"]))
    Z = make_fixture("z2", radius=3)
    assert sorted(map(repr, X.vertices)) == sorted(map(repr, Z.vertices))
    assert len(X.edges) == len(Z.edges) and len(X.faces) == len(Z.faces)


def test_ball_pipeline(tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(TORUS.to_json())
    rc, doc = jrun(tmp_path, "ball", "--in", str(pres), "--radius", "5")
    assert rc == 0
    assert len(doc["vertices"]) == 61
    assert doc["radius"] == 5
    # the ball artifact feeds the wall commands directly
    ball_path = tmp_path / "out.json"
    rc, walls = jrun(tmp_path, "walls", "--in", str(ball_path),
                     "--kinds", "standard", name="walls.json")
    assert rc == 0
    assert walls["walls"] and all(w["embedded_tree"] for w in walls["walls"])
    assert all(w["kind"] == "standard" for w in walls["walls"])


def test_ball_artifact_carries_work_counters(tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(TORUS.to_json())
    rc, doc = jrun(tmp_path, "ball", "--in", str(pres), "--radius", "3")
    assert rc == 0
    ball = build_ball(TORUS, 3)
    assert doc["work"] == ball.work and ball.work["cosets_defined"] > 0
    # only the 5 vertices within distance 1 carry all four of their squares
    assert doc["incomplete_vertices"] == 20
    envelope = {"version", "config", "seed", "work", "incomplete_vertices"}
    assert {k: v for k, v in doc.items() if k not in envelope} == \
        json.loads(ball.to_json())


def test_ball_budget_exhausted_is_reported_not_raised(tmp_path):
    rc, doc = jrun(tmp_path, "ball", "--rank", "2", "--density", "0.1",
                   "--seed", "0", "--radius", "3", "--hard-cap", "10")
    assert rc == cli.TRUNCATED == 3
    assert doc["complete"] is False
    assert doc["budget_exhausted"] == "more than 10 vertices created"
    assert doc["config"]["hard_cap"] == 10 and "vertices" not in doc


def test_wall_metric_grid_csv(tmp_path):
    rc, _ = jrun(tmp_path, "fixtures", "--name", "z2", "--radius", "3",
                 name="z2.json")
    out = tmp_path / "metric.csv"
    rc = run(["wall-metric", "--in", str(tmp_path / "z2.json"),
              "--format", "csv", "--out", str(out)])
    assert rc == 0
    text = read(out)
    header, columns, *rows = text.splitlines()
    envelope = json.loads(header.lstrip("# "))
    assert envelope["version"] and envelope["config"]["command"] == "wall-metric"
    assert columns == "x,y,d_edge,d_wall,bound,status"
    parsed = list(csv.reader(io.StringIO("\n".join(rows))))
    assert len(parsed) == 25 * 24 // 2
    assert all(r[5] == "pass" for r in parsed)
    supported = {v for v in make_fixture("z2", radius=3).vertices
                 if abs(v[0]) + abs(v[1]) < 3}
    for x, y, d_edge, d_wall, _b, _s in parsed:
        if tuple(json.loads(x)) in supported and tuple(json.loads(y)) in supported:
            assert d_edge == d_wall


def test_wall_metric_staircase_violation(tmp_path):
    rc, _ = jrun(tmp_path, "fixtures", "--name", "staircase",
                 "--length", "20", name="st.json")
    rc, doc = jrun(tmp_path, "wall-metric", "--in", str(tmp_path / "st.json"),
                   "--kinds", "standard", name="metric.json")
    assert rc == 1
    end_row, = [r for r in doc["rows"]
                if r["x"] == ["k", 0] and r["y"] == ["k", 20]]
    assert end_row["d_wall"] == 0
    assert end_row["d_edge"] >= 15
    assert end_row["status"] == "violation"


def test_windows_cli(tmp_path):
    rc, _ = jrun(tmp_path, "fixtures", "--name", "z2", "--radius", "11",
                 name="big.json")
    rc, doc = jrun(tmp_path, "windows", "--in", str(tmp_path / "big.json"),
                   "--from", "[-5,-5]", "--to", "[6,5]", name="win.json")
    assert rc == 0
    assert doc["geodesic_length"] == 21
    assert doc["statuses"] == ["pass"] * 7
    assert doc["all_pass"] is True


def test_windows_short_geodesic_is_usage_error(tmp_path):
    rc, _ = jrun(tmp_path, "fixtures", "--name", "z2", "--radius", "2",
                 name="small.json")
    with pytest.raises(SystemExit) as exc:
        run(["windows", "--in", str(tmp_path / "small.json"),
             "--from", "[0,0]", "--to", "[1,1]"])
    assert exc.value.code == 2


@pytest.mark.parametrize("src,dst,message", [
    ("[9,9]", "[0,0]", "--from: unknown vertex [9,9]"),
    ("[0,0]", "[9,9]", "--to: unknown vertex [9,9]"),
    ('{"x":0}', "[0,0]", '--from: unknown vertex {"x":0}'),
], ids=["from", "to", "object"])
def test_windows_unknown_vertex_is_usage_error(src, dst, message, tmp_path, capsys):
    out = tmp_path / "win.json"
    with pytest.raises(SystemExit) as exc:
        run(["windows", "--fixture", "z2", "--radius", "3", "--from", src,
             "--to", dst, "--out", str(out)])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_fulfill_mc_cli(tmp_path):
    cx = SquareComplex(
        ["p", "q", "r", "s"],
        {"a": ("p", "q"), "b": ("q", "r"), "c": ("r", "s"), "d": ("s", "p")},
        {0: Face((Step("a", 1), Step("b", 1), Step("c", 1), Step("d", 1)),
                 label=1)})
    shape = tmp_path / "shape.json"
    shape.write_text(AbstractComplex.wrap(cx).to_json())
    rc, doc = jrun(tmp_path, "fulfill-mc", "--in", str(shape), "--rank", "2",
                   "--density", "0.25", "--trials", "100", "--seed", "1")
    assert rc == 0
    rep = doc["report"]
    # a free square is fulfilled by every relator set
    assert rep["estimate"] == 1.0
    assert rep["trials"] == 100
    assert rep["ci_low"] <= 1.0 <= rep["ci_high"]
    assert doc["config"]["trials"] == 100


def test_enumerate_counts(tmp_path):
    rc, doc = jrun(tmp_path, "enumerate", "--faces", "1")
    assert rc == 0
    assert doc["classes"] == 49
    assert doc["classes_by_faces_labels"] == {"1,1": 49}
    assert doc["complete"] is True


def test_enumerate_reports_work(tmp_path):
    rc, doc = jrun(tmp_path, "enumerate", "--faces", "2")
    assert rc == 0
    work = doc["work"]
    assert sorted(work) == ["classes", "disconnected", "folded", "keys",
                            "repeats"]
    assert work["classes"] == doc["classes"] == 49 + 74528
    assert work["keys"] - work["repeats"] - work["disconnected"] \
        == work["classes"]


def test_capped_enumeration_is_not_reported_complete(tmp_path):
    rc, doc = jrun(tmp_path, "enumerate", "--faces", "3", "--parent-cap", "2",
                   "--level-cap", "50")
    assert rc == 3
    assert doc["complete"] is False
    three = {k: n for k, n in doc["classes_by_faces_labels"].items()
             if k.startswith("3,")}
    assert sum(three.values()) == 50


def test_scan_iso_exit_codes(tmp_path):
    rc, doc = jrun(tmp_path, "scan-iso", "--rank", "6", "--density", "0.2",
                   "--seed", "1", "--faces", "1")
    assert rc == 0 and doc["violations"] == []
    assert doc["complete"] is True
    rc, doc = jrun(tmp_path, "scan-iso", "--rank", "6", "--density", "0.2",
                   "--seed", "0", "--faces", "1")
    assert rc == 1
    assert doc["complete"] is True
    v = doc["violations"][0]
    assert set(v) == {"complex", "assignment", "cancel", "size", "threshold"}
    assert v["cancel"] > v["threshold"]


class _CappedCursor(EnumerationCursor):
    """The one-face classes, then a cap reported as having trimmed: a capped
    corpus without the cost of growing a real 3-face level."""

    def __init__(self, max_faces):
        super().__init__(1)

    def __iter__(self):
        yield from super().__iter__()
        self.truncated = True


def test_scan_iso_on_a_capped_corpus_is_not_clean(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "EnumerationCursor", _CappedCursor)
    rc, doc = jrun(tmp_path, "scan-iso", "--rank", "6", "--density", "0.2",
                   "--seed", "1", "--faces", "3")
    assert rc == 3
    assert doc["violations"] == [] and doc["complete"] is False
    # a violation found on a capped corpus is still a failed check
    rc, doc = jrun(tmp_path, "scan-iso", "--rank", "6", "--density", "0.2",
                   "--seed", "0", "--faces", "3")
    assert rc == 1
    assert doc["violations"] and doc["complete"] is False


def test_special_cells_exit_codes(tmp_path):
    rc, doc = jrun(tmp_path, "special-cells", "--rank", "1",
                   "--density", "0.25", "--seed", "0")
    assert rc == 0
    assert doc["report"]["cross_witness_count"] == 0
    rc, doc = jrun(tmp_path, "special-cells", "--rank", "5",
                   "--density", "0.2", "--seed", "0")
    assert rc == 1
    assert doc["report"]["cross_witness_count"] > 0


def test_dot_output(tmp_path):
    rc, _ = jrun(tmp_path, "fixtures", "--name", "annulus", "--k", "4",
                 name="ann.json")
    out = tmp_path / "walls.dot"
    rc = run(["walls", "--in", str(tmp_path / "ann.json"),
              "--kinds", "standard", "--format", "dot", "--out", str(out)])
    assert rc == 0
    text = read(out)
    assert text.startswith("// ")
    assert text.count('graph "standard_') == 5
    assert " -- " in text


def test_usage_errors(tmp_path):
    rank1 = tmp_path / "rank1.json"  # a relator letter beyond the rank
    rank1.write_text(json.dumps({"rank": 1, "density": 0.1, "seed": 0,
                                 "relators": [["a1", "a2", "a1^-1", "a2^-1"]]}))
    for argv in (
        ["no-such-command"],
        ["walls"],  # neither --in nor --fixture
        ["walls", "--fixture", "z2", "--in", "also.json"],
        ["walls", "--fixture", "z2", "--kinds", "purple"],
        ["fixtures", "--name", "nosuch"],
        ["ball", "--in", str(tmp_path / "missing.json"), "--radius", "1"],
        ["ball", "--in", str(rank1), "--radius", "1"],
        ["enumerate", "--faces", "3", "--parent-cap", "-74576", "--level-cap", "-1"],
        ["enumerate", "--faces", "3", "--level-cap", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_painting_conflict_reported_not_raised(tmp_path):
    # two disjoint strong pairs with labels 1/2 and 2/3: label 2 is forced
    # blue by the first pair and red by the second, so no coloring exists;
    # the command must report that in the artifact, not crash
    cx = build_quotient(4, [((0, 0), (1, 2), 1), ((0, 1), (1, 3), 1),
                            ((2, 0), (3, 2), 1), ((2, 1), (3, 3), 1),
                            ((0, 2), (2, 2), 1)], labels=[1, 2, 2, 3])
    src = tmp_path / "conflict.json"
    src.write_text(cx.to_json())
    for cmd in (["walls", "--in", str(src)],
                ["wall-metric", "--in", str(src)],
                ["windows", "--in", str(src), "--from", '"u0"', "--to", '"u1"']):
        rc, doc = jrun(tmp_path, *cmd)
        assert rc == 1
        assert "forced both" in doc["painting_conflict"]
        assert doc["config"]["command"] == cmd[0]


def test_tracing_error_reported_not_raised(tmp_path):
    # a face of this ball shares opposite edges with its strongly adjacent
    # partner, so the red and blue turns through it are undefined
    ball = tmp_path / "ball.json"
    assert run(["ball", "--rank", "5", "--density", "0.15", "--seed", "144666",
                "--radius", "2", "--out", str(ball)]) == 0
    rc, doc = jrun(tmp_path, "walls", "--in", str(ball), "--kinds", "standard")
    assert rc == 0 and doc["walls"]
    for cmd in (["walls", "--in", str(ball)],
                ["walls", "--in", str(ball), "--format", "dot"],
                ["wall-metric", "--in", str(ball)],
                ["windows", "--in", str(ball), "--from", "[]", "--to", "[1]"]):
        rc, doc = jrun(tmp_path, *cmd)
        assert rc == 1
        assert doc["tracing_error"] == ("face 0 shares opposite edges; "
                                        "turn pairing undefined")
        assert doc["config"]["command"] == cmd[0]
        assert "walls" not in doc and "rows" not in doc


@pytest.mark.parametrize("argv", [
    ["walls", "--fixture", "z2", "--radius", "0"],
    ["ball", "--radius", "-1"],
    ["enumerate", "--faces", "6"],
    ["scan-iso", "--rank", "2", "--density", "0.25", "--faces", "0"],
    ["sample", "--rank", "2", "--density", "0"],
    ["sample", "--rank", "0", "--density", "0.3"],
    ["fulfill-mc", "--in", "shape.json", "--rank", "2", "--density", "0.25",
     "--trials", "50"],
], ids=["walls-radius-0", "ball-radius-negative", "enumerate-faces-6",
        "scan-iso-faces-0", "sample-density-0", "sample-rank-0",
        "fulfill-mc-trials-50"])
def test_bad_values_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["fixtures", "--name", "house", "--out", "shape.json"]) == 0
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", "out.json"])
    assert exc.value.code == 2
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["walls", "--in", "pres.json"],
    ["fulfill-mc", "--in", "pres.json", "--rank", "2", "--density", "0.25"],
    ["ball", "--in", "walls.json", "--radius", "1"],
    ["ball", "--in", "list.json", "--radius", "1"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_in_file_of_the_wrong_kind_is_a_usage_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["sample", "--rank", "2", "--density", "0.25",
                "--out", "pres.json"]) == 0
    assert run(["walls", "--fixture", "annulus", "--out", "walls.json"]) == 0
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", "out.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,written", [
    (["walls", "--fixture", "z2", "--radius", "2"], ("json", "dot")),
    (["wall-metric", "--fixture", "z2", "--radius", "2"], ("json", "csv")),
    (["windows", "--fixture", "z2", "--radius", "11", "--from", "[-5,-5]",
      "--to", "[6,5]"], ("json",)),
    (["fixtures", "--name", "house"], ("json",)),
], ids=["walls", "wall-metric", "windows", "fixtures"])
def test_format_offers_only_what_the_command_writes(argv, written, tmp_path):
    for fmt in ("json", "csv", "dot"):
        out = tmp_path / f"out.{fmt}"
        if fmt in written:
            assert run([*argv, "--format", fmt, "--out", str(out)]) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--format", fmt, "--out", str(out)])
            assert exc.value.code == 2
            assert not out.exists()
