"""The three workloads: inputs from the workload seed, the program calls of
one round, and the checks of every output.

A workload has a one-time `prep` (program work a session pays once before
its loop, such as building the class corpus) and a `round` of operations on
inputs drawn from the workload seed, which the run repeats on the same
inputs until its time is up. Every round attempts the same operations, so
the share of failed operations is the same in every run. Program calls go
through Round.call, which times them; checks run between calls and are not
timed. Library functions are looked up as module attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time

import checks
from checks import CheckFailed, require

KINDS = ("standard", "red", "blue")


class Round:
    """Operations of one round: (kind, seconds) per program call, failures
    of the known fault, check failures, and facts the summary reads."""

    def __init__(self):
        self.ops: list = []
        self.failed = 0
        self.errors: list = []
        self.facts: dict = {}

    def call(self, kind, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.ops.append((kind, time.perf_counter() - t0))
        return result

    def check(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.errors.append(str(exc))
            return None

    def add(self, fact, value) -> None:
        self.facts[fact] = self.facts.get(fact, 0) + value

    def seconds(self, *kinds) -> float:
        return sum(dt for k, dt in self.ops if not kinds or k in kinds)

    def times(self, kind) -> list:
        return [dt for k, dt in self.ops if k == kind]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _median_tail(values, min_beyond: int = 10):
    """(median, (percentile, value) of the highest percentile in a fixed
    ladder with at least min_beyond samples beyond it, or None)."""
    values = sorted(values)
    n = len(values)
    tail = None
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - q / 100) >= min_beyond:
            tail = (q, values[min(n - 1, math.ceil(q / 100 * n) - 1)])
            break
    return statistics.median(values), tail


class Workload:
    name = ""
    # times the prep is done again before each round of an untraced run; a
    # prep of a tenth of a second needs several timings to be steady
    preps_per_round = 0

    def __init__(self, lib, workdir: str):
        self.lib = lib  # namespace of squarewalls modules
        self.work = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def layer_facts(self, state: dict) -> dict:
        """Per-layer facts read off the prep's state rather than the spans."""
        return {}

    def cli(self, rnd: Round, kind: str, argv, out: str) -> int:
        rc = rnd.call(kind, self.lib.cli.run, [*argv, "--out", out])
        rnd.add("artifact_bytes", os.path.getsize(out))
        return rc


# -- sampled-walls ---------------------------------------------------------

# Equality proofs for the edge relations u·a = v of the radius-2 ball of
# sample_presentation(5, 0.15, 1) (relators a1 a4 a1^-1 a4, a4 a1^-1 a5^-1 a4,
# a5 a3^-1 a4 a2) on which words_equal answers "distinct": each is a list of
# (position, relator variant) insertions that takes u·v⁻¹ to the empty word
# under free reduction, found by a breadth-first search with a larger area
# cap than words_equal grants. The benchmark replays them; it does not trust
# them.
EQUALITY_PROOFS = {
    ((1, 5), (-1, -5)): [(0, (-4, 1, -4, -1)), (0, (-1, -5, 4, 4)),
                         (2, (1, -4, -1, -4)), (2, (-5, 4, 4, -1))],
    ((1, 1, 5), (-5,)): [(0, (-5, 4, 4, -1)), (1, (1, -4, -1, -4)),
                         (1, (-5, 4, 4, -1)), (2, (-1, -4, 1, -4))],
    ((4, -5, 4), (-5,)): [(0, (1, -4, -1, -4)), (0, (-5, 4, 4, -1)),
                          (1, (-4, 5, 1, -4))],
    ((4, 4, 1), (-5,)): [(0, (1, -4, -1, -4)), (0, (-5, 4, 4, -1)),
                         (1, (-1, -4, 1, -4))],
    ((4, 5, 4), (5,)): [(0, (5, 1, -4, -4)), (1, (-4, 1, -4, -1)),
                        (2, (-5, 4, 4, -1))],
    ((5, 4), (-1, -4)): [(0, (-1, -4, 1, -4)), (2, (-4, 1, -4, -1)),
                         (3, (-5, 4, 4, -1))],
    ((5, 5), (-1, -1)): [(0, (-1, -4, 1, -4)), (1, (-1, -5, 4, 4)),
                         (3, (1, -4, -1, -4)), (3, (-5, 4, 4, -1))],
}


class SampledWalls(Workload):
    """sample -> ball -> walls on sampled presentations, one all-pairs
    wall-metric, and words_equal on the edge relations of a fixed ball."""

    name = "sampled-walls"
    preps_per_round = 2
    # (tag, rank, density, radius) with seeds drawn from the workload seed:
    # balls of about 60-140 vertices whose cost varies little with the
    # seed (at rank 5 and density 0.15 the group often collapses, and the
    # ball's cost varies 2.4-fold from seed to seed). Their walls are traced with the standard kind only: red and blue
    # tracing raises an uncaught TracingError on some sampled balls (see
    # CHANGES.md), so those kinds run on the fixed balls below.
    SLOTS = (("r5d10", 5, 0.1, 2), ("r5d12", 5, 0.12, 2), ("r6d10", 6, 0.1, 2))
    SEEDED_KINDS = ("standard",)
    # (tag, rank, density, seed, radius), the same under every workload seed
    # and built in the prep: the ball whose edge relations feed words_equal
    # and which gets the all-pairs metric (81 vertices); a 289-vertex
    # radius-3 ball with 20 non-tree walls (radius-3 balls vary in size by a
    # factor of 2.5 from seed to seed, which would swamp the run-to-run
    # comparison); a ball with no consistent painting, on which walls exits 1
    FIXED = (("rel", 5, 0.15, 1, 2), ("r4d10", 4, 0.1, 0, 3),
             ("conflict", 4, 0.15, 0, 3))

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"slots": [(tag, n, d, rng.randrange(10**6), r)
                          for tag, n, d, r in self.SLOTS]}

    def sample_ball(self, rnd: Round, tag: str, n: int, d: float, seed: int, r: int):
        """sample -> ball through the CLI: (ball path, checked ball or None)."""
        pres, ball = self.path(f"{tag}.pres.json"), self.path(f"{tag}.ball.json")
        rc = self.cli(rnd, "sample", ["sample", "--rank", str(n), "--density", str(d),
                                      "--seed", str(seed)], pres)
        require(rc == 0, f"sample exited {rc}")
        pdoc = json.loads(_read(pres))["presentation"]
        rels = [tuple(checks.parse_letter(t) for t in w) for w in pdoc["relators"]]
        rnd.check(checks.check_presentation, rels, n, d)
        rc = self.cli(rnd, "ball", ["ball", "--in", pres, "--radius", str(r)], ball)
        require(rc == 0, f"ball exited {rc}")
        bdoc = json.loads(_read(ball))
        rnd.check(require, bdoc["presentation"] == pdoc,
                  "ball presentation differs from the sampled one")
        rnd.add("ball_vertices", len(bdoc["vertices"]))
        return ball, rnd.check(checks.check_ball, bdoc)

    def prep(self, rnd: Round) -> dict:
        fixed = {tag: self.sample_ball(rnd, tag, n, d, seed, r)
                 for tag, n, d, seed, r in self.FIXED}
        ball, cx = fixed["rel"]
        require(cx is not None, "the fixed ball fails its check")
        doc = json.loads(_read(ball))
        P = self.lib.presentation.Presentation.from_json(json.dumps(doc["presentation"]))
        relations = []
        for (w, g), (_s, dst) in sorted(cx.edges.items(), key=repr):
            u = w + (g,)
            if checks.free_reduce(u) != dst:
                relations.append((u, dst))
        require(set(EQUALITY_PROOFS) <= set(relations),
                "the fixed ball lacks an edge relation the proofs expect")
        for (u, v), proof in EQUALITY_PROOFS.items():
            require(checks.replay_witness(P.relators, u, v, proof),
                    f"stored proof of {u} = {v} does not replay")
        return {"P": P, "relations": relations, "fixed": fixed}

    def walls(self, rnd: Round, tag: str, ball: str, cx, kinds):
        """walls on a ball artifact: the side maps of its walls, or None when
        the ball has no painting (a checked conflict) or failed its check."""
        out = self.path(f"{tag}.walls.json")
        rc = self.cli(rnd, "walls", ["walls", "--in", ball, "--kinds", ",".join(kinds)],
                      out)
        doc = json.loads(_read(out))
        if cx is None:
            return None
        if rc == 1:
            rnd.check(checks.check_painting_conflict, cx, doc)
            rnd.add("conflicts", 1)
            return None
        rnd.check(require, rc == 0, f"walls exited {rc}")
        rnd.add("non_tree_walls", sum(not w["embedded_tree"] for w in doc["walls"]))
        return rnd.check(checks.check_walls, cx, doc, kinds)

    def round(self, state: dict, inputs: dict, rnd: Round) -> None:
        for tag, n, d, seed, r in inputs["slots"]:
            t0 = rnd.seconds()
            ball, cx = self.sample_ball(rnd, tag, n, d, seed, r)
            self.walls(rnd, tag, ball, cx, self.SEEDED_KINDS)
            rnd.facts.setdefault("pipelines", []).append(rnd.seconds() - t0)
        sides = {tag: self.walls(rnd, tag, ball, cx, KINDS)
                 for tag, (ball, cx) in state["fixed"].items()}
        # the all-pairs metric runs on a fixed ball, so that its cost, cubic
        # in the vertex count, does not depend on the seed
        ball, cx = state["fixed"]["rel"]
        metric = self.path("metric.csv")
        rc = self.cli(rnd, "wall_metric", ["wall-metric", "--in", ball, "--format", "csv"],
                      metric)
        rnd.check(require, rc == 0, f"wall-metric exited {rc}")
        rows = rnd.check(checks.parse_metric_csv, _read(metric))
        if rows is not None and sides["rel"] is not None:
            rnd.check(checks.check_ball_metric, cx, rows, sides["rel"])
            rnd.add("metric_rows", len(rows))
        P = state["P"]
        for u, v in state["relations"]:
            res = rnd.call("words_equal", self.lib.cayley.words_equal, P, u, v)
            if res.status == "equal":
                rnd.check(require, checks.replay_witness(P.relators, u, v, res.witness),
                          f"words_equal witness for {u} = {v} does not replay")
            elif (u, v) in EQUALITY_PROOFS:
                rnd.failed += 1  # the prover's cut search, labeled "distinct"
            else:
                rnd.errors.append(f"words_equal {u} vs {v}: {res.status}, and the "
                                  f"benchmark holds no proof either way")

    def details(self, rounds, state) -> dict:
        pipelines = [t for rnd in rounds for t in rnd.facts["pipelines"]]
        vertices = sum(rnd.facts.get("ball_vertices", 0) for rnd in rounds)
        rows = sum(rnd.facts.get("metric_rows", 0) for rnd in rounds)
        return {
            "pipeline_p50_s": statistics.median(pipelines),
            "pipelines": len(pipelines),
            "ball_vertices_per_s": vertices / sum(r.seconds("ball") for r in rounds),
            "metric_pairs_per_s": rows / sum(r.seconds("wall_metric") for r in rounds),
            # rounds repeat the same inputs, so the first one stands for all
            "painting_conflicts_per_round": rounds[0].facts.get("conflicts", 0),
            "non_tree_walls_per_round": rounds[0].facts.get("non_tree_walls", 0),
        }


# -- torus-walls -----------------------------------------------------------


class TorusWalls(Workload):
    """The Z² diamond: an all-pairs wall-metric in CSV, and the window check
    on a random monotone geodesic for every far pair of the radius-11 ball."""

    name = "torus-walls"
    preps_per_round = 8
    METRIC_RADIUS = 7
    WINDOW_RADIUS = 11
    MIN_GEODESIC = 21

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        self.far = checks.z2_far_pairs(self.WINDOW_RADIUS, self.MIN_GEODESIC)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        return {"paths": [checks.z2_monotone_path(u, v, self.WINDOW_RADIUS, rng)
                          for u, v in self.far]}

    def prep(self, rnd: Round) -> dict:
        walls = self.lib.walls
        X = rnd.call("fixture", self.lib.fixtures.make_fixture, "z2",
                     radius=self.WINDOW_RADIUS)
        painted = rnd.call("paint", walls.paint, X)
        W = rnd.call("decomposition", walls.wall_decomposition, painted)
        require(all(rep.count == 2 for rep in W.reports),
                "a wall of the Z² diamond does not have two sides")
        return {"X": X, "W": W}

    def round(self, state: dict, inputs: dict, rnd: Round) -> None:
        metric = self.path("z2.metric.csv")
        rc = self.cli(rnd, "wall_metric", ["wall-metric", "--fixture", "z2", "--radius",
                                           str(self.METRIC_RADIUS), "--format", "csv"],
                      metric)
        rnd.check(require, rc == 0, f"wall-metric exited {rc}")
        rows = rnd.check(checks.parse_metric_csv, _read(metric))
        if rows is not None:
            rnd.check(checks.check_z2_metric, rows, self.METRIC_RADIUS)
            rnd.add("metric_rows", len(rows))
        check = self.lib.walls.check_window_crossing
        X, W = state["X"], state["W"]
        for path in inputs["paths"]:
            rep = rnd.call("window", check, X, W, path)
            rnd.check(checks.check_z2_windows, path, rep.statuses)

    def details(self, rounds, state) -> dict:
        rows = sum(r.facts.get("metric_rows", 0) for r in rounds)
        windows = [t * 1000 for r in rounds for t in r.times("window")]
        p50, tail = _median_tail(windows)
        out = {
            "metric_pairs_per_s": rows / sum(r.seconds("wall_metric") for r in rounds),
            "window_p50_ms": p50,
            "window_samples": len(windows),
        }
        if tail:
            out[f"window_p{tail[0]:g}_ms"] = tail[1]
        return out


# -- local-iso -------------------------------------------------------------


class LocalIso(Workload):
    """A capped class corpus built once, then per presentation the
    local-isoperimetry scan and the special-cell search, then Monte Carlo
    and exact set-fulfill probabilities on the three criterion-10 shapes."""

    name = "local-iso"
    FACES, PARENT_CAP, LEVEL_CAP = 3, 10, 200
    EPS = 0.05
    # (rank, density) of the presentations scanned each round; their relator
    # seeds come from the workload seed
    SLOTS = ((4, 0.15), (6, 0.1))
    MC_RANK, MC_DENSITY, MC_TRIALS = 2, 0.25, 500
    Z_WIDE = 5.0

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        self._exact: dict = {}

    def shapes(self) -> list:
        bq = self.lib.complexes.build_quotient
        wrap = self.lib.fulfill.AbstractComplex.wrap
        return [
            ("repeated-position", wrap(bq(2, [((0, 0), (1, 2), 1)], labels=[1, 1]))),
            ("shared-edge", wrap(bq(2, [((0, 1), (1, 1), -1)], labels=[1, 2]))),
            ("strongly-adjacent", wrap(self.lib.fixtures.strongly_adjacent_pair())),
        ]

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        pres = [(n, d, rng.randrange(10**6)) for n, d in self.SLOTS]
        return {"presentations": pres, "mc_seed": rng.randrange(10**6),
                "shapes": self.shapes()}

    def prep(self, rnd: Round) -> dict:
        cursor = self.lib.enumeration.EnumerationCursor(
            self.FACES, parent_cap=self.PARENT_CAP, level_cap=self.LEVEL_CAP)
        corpus = rnd.call("corpus", list, cursor)
        cancellation = self.lib.complexes.cancellation
        by_faces: dict = {}
        for Y in corpus:
            edges, faces = checks.class_faces(Y)
            F, E = len(faces), len(edges)
            own = checks.own_cancellation(edges, faces)
            require(own == 4 * F - E == cancellation(Y.base),
                    f"class cancellation {cancellation(Y.base)}, 4F-E = {4 * F - E}")
            by_faces[F] = by_faces.get(F, 0) + 1
        require(by_faces.get(3, 0) <= self.LEVEL_CAP, "3-face level exceeds its cap")
        # the complete 2-face level has more classes than the parent cap, so
        # the 3-face level is capped and must not be reported complete
        require(cursor.truncated == (by_faces.get(2, 0) > self.PARENT_CAP),
                f"cursor.truncated is {cursor.truncated} with {by_faces.get(2, 0)} "
                f"2-face classes and parent cap {self.PARENT_CAP}")
        return {"corpus": corpus, "index": {id(Y): i for i, Y in enumerate(corpus)},
                "by_faces": by_faces, "truncated": cursor.truncated, "brute": None}

    def layer_facts(self, state: dict) -> dict:
        return {"corpus_classes": len(state["corpus"]),
                "corpus_3face": state["by_faces"].get(3, 0),
                "truncated": int(state["truncated"])}

    def exact(self, name, Y) -> float:
        if name not in self._exact:
            _edges, faces = checks.class_faces(Y)
            r = checks.relator_count(self.MC_RANK, self.MC_DENSITY)
            self._exact[name] = checks.set_fulfill_probability(faces, self.MC_RANK, r)
        return self._exact[name]

    def round(self, state: dict, inputs: dict, rnd: Round) -> None:
        lib = self.lib
        for n, d, seed in inputs["presentations"]:
            t0 = rnd.seconds()
            P = rnd.call("sample", lib.presentation.sample_presentation, n, d, seed)
            R = list(P.relators)
            rnd.check(checks.check_presentation, R, n, d)
            params = lib.complexes.IsoParams(d=d, eps=self.EPS)
            found = rnd.call("scan", lib.enumeration.scan_local_iso, R, self.FACES,
                             params, classes=state["corpus"])
            for v in found:
                rnd.check(checks.check_violation, json.loads(v.to_json_line()), R, d,
                          self.EPS)
            if state["brute"] is None:
                # kept for the brute-force comparison made once per run
                state["brute"] = (R, d, {state["index"][id(v.complex)] for v in found})
            rep = rnd.call("special_cells", lib.enumeration.check_special_cells, R)
            rnd.check(checks.check_overlaps, R, rep.to_json_dict())
            rnd.add("violations", len(found))
            rnd.facts.setdefault("scans", []).append(rnd.seconds() - t0)
        for name, Y in inputs["shapes"]:
            rep = rnd.call("exact", lib.fulfill.exact_set_fulfill_probability, Y,
                           self.MC_RANK, self.MC_DENSITY)
            own = self.exact(name, Y)
            rnd.check(require, abs(rep.probability - own) < 1e-12,
                      f"{name}: exact probability {rep.probability}, benchmark {own}")
            mc = rnd.call("mc", lib.fulfill.monte_carlo_set_fulfill, Y, self.MC_RANK,
                          self.MC_DENSITY, self.MC_TRIALS, inputs["mc_seed"])
            rnd.check(checks.check_monte_carlo, mc.to_json_dict(), self.MC_TRIALS, own,
                      self.Z_WIDE)
            rnd.add("mc_trials", self.MC_TRIALS)
            rnd.add("mc_95_misses", not mc.ci_low <= own <= mc.ci_high)

    def final_check(self, state: dict) -> None:
        """Brute force over label -> relator tuples on every class for one
        presentation of the run: it must find exactly the reported set."""
        R, d, reported = state["brute"]
        own = checks.brute_force_violations(checks.compile_classes(state["corpus"]), R, d,
                                            self.EPS)
        require(own == reported, f"brute force finds {len(own)} violating classes, "
                f"the scan reported {len(reported)}; {len(own ^ reported)} differ")

    def details(self, rounds, state) -> dict:
        scans = [t for r in rounds for t in r.facts["scans"]]
        return {
            "scan_p50_s": statistics.median(scans),
            "scans": len(scans),
            "mc_trials_per_s": sum(r.facts["mc_trials"] for r in rounds)
            / sum(r.seconds("mc") for r in rounds),
            "mc_95_interval_misses_of_3": rounds[0].facts["mc_95_misses"],
            "corpus_classes": len(state["corpus"]),
            "corpus_by_faces": state["by_faces"],
            "corpus_complete": not state["truncated"],
        }


WORKLOADS = {w.name: w for w in (SampledWalls, TorusWalls, LocalIso)}
