"""Byte-identity of CLI artifacts: the sha256 of each artifact is pinned.

A change that alters one of these artifacts on purpose updates its digest
here and says why in CHANGES.md; any other change must leave them all equal.
Each command runs in a fresh working directory with relative file names, so
the config envelope does not depend on where the test runs.
"""

import hashlib

import pytest

from squarewalls.cli import run

Z2 = ("--fixture", "z2", "--radius", "7")

# name -> list of (argv, output file) run in order in one directory; the
# digest is taken of the last output
PIPELINES = {
    "z2_r7_walls_json": [(("walls", *Z2), "walls.json")],
    "z2_r7_walls_dot": [(("walls", *Z2, "--format", "dot"), "walls.dot")],
    "z2_r7_wall_metric_csv": [
        (("wall-metric", *Z2, "--format", "csv"), "metric.csv")],
}
for rank, density, seed, radius in ((4, "0.1", 0, 3), (5, "0.15", 1, 2)):
    sample = ("--rank", str(rank), "--density", density, "--seed", str(seed))
    PIPELINES[f"sampled_{rank}_{density}_{seed}_r{radius}_walls"] = [
        (("sample", *sample), "pres.json"),
        (("ball", "--in", "pres.json", "--radius", str(radius)), "ball.json"),
        (("walls", "--in", "ball.json", "--kinds", "standard,red,blue"),
         "walls.json"),
    ]
PIPELINES["ball_5_0.15_144666_r2"] = [
    (("ball", "--rank", "5", "--density", "0.15", "--seed", "144666",
      "--radius", "2"), "ball.json")]
# Monte Carlo set-fulfill on labelled fixtures, with 3 and 5 relators per
# sampled presentation
for fixture, rank in (("special-pairs", 2), ("house", 3)):
    PIPELINES[f"fulfill_mc_{fixture}_{rank}"] = [
        (("fixtures", "--name", fixture), "shape.json"),
        (("fulfill-mc", "--in", "shape.json", "--rank", str(rank), "--density",
          "0.25", "--trials", "300", "--seed", "3"), "mc.json")]
# the violation witnesses embed each class representative, so these pin the
# corpus classes, their order and their representative gluings
for faces in (1, 2):
    PIPELINES[f"scan_iso_2_0.25_1_f{faces}"] = [
        (("scan-iso", "--rank", "2", "--density", "0.25", "--seed", "1",
          "--faces", str(faces)), "scan.json")]
# named ids of every kind (strings, tuples), red and blue turns
for fixture in ("comparison", "staircase", "annulus", "special-pairs", "house"):
    PIPELINES[f"walls_{fixture}"] = [
        (("walls", "--fixture", fixture), "walls.json")]
# a 22-edge geodesic through the split squares of the staircase
PIPELINES["windows_staircase_11"] = [
    (("windows", "--fixture", "staircase", "--length", "11",
      "--from", '["k",0]', "--to", '["k",11]'), "windows.json")]
# breadth-first search over the word-tuple vertices of a sampled ball
PIPELINES["wall_metric_5_0.15_1_r2"] = [
    (("sample", "--rank", "5", "--density", "0.15", "--seed", "1"), "pres.json"),
    (("ball", "--in", "pres.json", "--radius", "2"), "ball.json"),
    (("wall-metric", "--in", "ball.json"), "metric.json")]

DIGESTS = {
    "ball_5_0.15_144666_r2":
        "46b4e888d594e4e5ff10b79261d7d26698e4dca647da350a26679326e48beff0",
    "fulfill_mc_house_3":
        "9a04022d00982eadf129e4efe7cd041796e17873bdb43d6cb38825c956c1f5d0",
    "fulfill_mc_special-pairs_2":
        "d2bc20c58f73c4c0eaa671f0ba5c21646569e49ec647f835b479703f30ae960d",
    "sampled_4_0.1_0_r3_walls":
        "45bc47c8e896e40a2bd65ff00dab93ea0a7f560bd7439d13107f802c3251bc0f",
    "sampled_5_0.15_1_r2_walls":
        "eb1cf0cb6e216e788c02c08a0023000d8ace825e57c3b70fd2285c0d9de02260",
    "scan_iso_2_0.25_1_f1":
        "b9a7049ce9c88a6d06690c8894153d02dc4256de77cad239511c5127ff37baf1",
    "scan_iso_2_0.25_1_f2":
        "891884c7c73253ecfd6a65b6bafdf532fcc0183148835c3adf1d9b9b45483c70",
    "wall_metric_5_0.15_1_r2":
        "d569fdb13b95c88410c9b29876c5c4154a83006a74666af906df671610307577",
    "walls_annulus":
        "48de7f84049564c65e1f022abfef3e85043c28c4b98da498aae12d4a8f70a123",
    "walls_comparison":
        "2e9464cc9fb361a8d156a3628eb6ae01feb3bf78c678d053ed5cf3405a99d75d",
    "walls_house":
        "5e29dfe3656bdb60f76ea9d866c1848d1a2f1f4191429420a995e151771128f8",
    "walls_special-pairs":
        "062863864ab4d07c7eb9e7b866aba159007b3674909f137076bfaff74d4de08b",
    "walls_staircase":
        "5dcb43a683178c8a5adc5597d180b474ee1fcf5501ca5803ac3314b5f2b7676c",
    "windows_staircase_11":
        "a684e3324576ce6cfa019c830c03d99cbe2c48665be8c0f40dc2de23406fe043",
    "z2_r7_wall_metric_csv":
        "c908006ba16f3b0439d0c88000a8ce2f12acf3aae8b50b26995ca31bc4834acb",
    "z2_r7_walls_dot":
        "4bfcb07b560f8bf78f713348f553f12eb9702151dbad74926b6b39f618e5abdf",
    "z2_r7_walls_json":
        "fbe85371445ed0b484c32751a13b28bf619645e9a33199bd929f95007c89d640",
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_artifact_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, out in PIPELINES[name]:
        run([*argv, "--out", out])
    digest = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
