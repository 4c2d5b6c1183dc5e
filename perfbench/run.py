"""squarewalls benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload sampled-walls --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from its src/.
With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics instead. A
human-readable summary of workload-specific figures precedes it. See
README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
MODULES = ("presentation", "complexes", "fulfill", "enumeration", "cayley",
           "walls", "fixtures", "cli")
SETUP_PROBES = 9

sys.path.insert(0, HERE)


def import_library() -> SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "squarewalls", "__init__.py")):
        sys.exit(f"no squarewalls sources under {SRC}: run from a checkout's root")
    sys.path.insert(0, SRC)
    import importlib
    mods = {m: importlib.import_module(f"squarewalls.{m}") for m in MODULES}
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            sys.exit(f"squarewalls imported from {mod.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process pays before its first timed call: interpreter,
    imports and the generation of the inputs."""
    from workloads import WORKLOADS
    lib = import_library()
    WORKLOADS[workload](lib, WORK).inputs(seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall seconds of SETUP_PROBES fresh processes that each do what
    setup_probe does and exit. No timeout: waiting with one polls in steps
    of up to 50 ms, which would show in the measurement."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def typical_round(rounds) -> float:
    """Program seconds of one round (or prep) with each call at its median
    over the run's rounds, which repeat the same calls on the same inputs.
    The host's speed moves by a fifth from second to second and, now and
    then, reaches fast spells that some runs catch and others miss, so a
    median is steadier from run to run than the fastest timing (README.md,
    "Noise")."""
    n_ops = len(rounds[0].ops)
    whole = [r.ops for r in rounds if len(r.ops) == n_ops]
    return sum(statistics.median(ops[j][1] for ops in whole) for j in range(n_ops))


def layer_metrics(prep: dict, rounds: dict, n_rounds: int, state: dict,
                  extra: dict) -> dict:
    """Per-layer figures of a session that does the one-time prep and one
    round: prep totals plus the mean over the traced rounds."""

    def get(kind, key):
        return prep[kind].get(key, 0) + rounds[kind].get(key, 0) / n_rounds

    def calls(span):
        return get("calls", span)

    def secs(span):
        return get("seconds", span)

    def count(key):
        return get("counts", key)

    def under(span, parent):
        return get("under", (span, parent))

    cli_self = secs("cli") - get("child_seconds", "cli")
    search_calls, hits = calls("fulfill.search"), count("fulfill.search_hits")
    m = {
        "cli.commands": (calls("cli"), "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.artifact_bytes": (extra["artifact_bytes"], "bytes"),
        "presentation.sample_calls": (calls("presentation.sample"), "count"),
        "presentation.sample_s": (secs("presentation.sample"), "s"),
        "cayley.build_ball_calls": (calls("cayley.build_ball"), "count"),
        "cayley.build_ball_s": (secs("cayley.build_ball"), "s"),
        "cayley.ball_vertices": (count("cayley.ball_vertices"), "count"),
        "cayley.ball_faces": (count("cayley.ball_faces"), "count"),
        "cayley.incomplete_vertices": (count("cayley.incomplete_vertices"), "count"),
        "cayley.to_json_s": (secs("cayley.to_json"), "s"),
        "cayley.words_equal_calls": (calls("cayley.words_equal"), "count"),
        "cayley.words_equal_s": (secs("cayley.words_equal"), "s"),
        "cayley.words_equal_states": (count("cayley.words_equal_states"), "count"),
        "walls.paint_s": (secs("walls.paint"), "s"),
        "walls.decomposition_s": (secs("walls.decomposition"), "s"),
        "walls.walls": (count("walls.walls"), "count"),
        "walls.non_tree_walls": (count("walls.non_tree_walls"), "count"),
        "walls.tree_check_s": (secs("walls.tree_check"), "s"),
        "walls.lower_bound_s": (secs("walls.lower_bound"), "s"),
        "walls.lower_bound_pairs": (count("walls.lower_bound_pairs"), "count"),
        "walls.bfs_geodesic_calls": (calls("walls.bfs_geodesic"), "count"),
        "walls.bfs_geodesic_s": (secs("walls.bfs_geodesic"), "s"),
        "walls.window_checks": (calls("walls.window_check"), "count"),
        "walls.window_check_s": (secs("walls.window_check"), "s"),
        "enumeration.corpus_classes": (state.get("corpus_classes", 0), "count"),
        "enumeration.corpus_3face_classes": (state.get("corpus_3face", 0), "count"),
        "enumeration.truncated": (state.get("truncated", 0), "flag"),
        "enumeration.canonical_key_calls": (calls("enumeration.canonical_key"), "count"),
        "enumeration.canonical_key_s": (secs("enumeration.canonical_key"), "s"),
        "enumeration.scan_calls": (calls("enumeration.scan"), "count"),
        "enumeration.scan_s": (secs("enumeration.scan"), "s"),
        "enumeration.hot_classes": (under("fulfill.search", "enumeration.scan"), "count"),
        "enumeration.violations": (count("enumeration.violations"), "count"),
        "enumeration.special_cells_s": (secs("enumeration.special_cells"), "s"),
        "complexes.build_quotient_calls": (calls("complexes.build_quotient"), "count"),
        "complexes.build_quotient_s": (secs("complexes.build_quotient"), "s"),
        "complexes.cancellation_calls": (calls("complexes.cancellation"), "count"),
        "complexes.cancellation_s": (secs("complexes.cancellation"), "s"),
        "fulfill.search_calls": (search_calls, "count"),
        "fulfill.search_s": (secs("fulfill.search"), "s"),
        "fulfill.search_hits": (hits, "count"),
        "fulfill.hit_ratio": (hits / search_calls if search_calls else 0.0, "ratio"),
        "fulfill.mc_s": (secs("fulfill.mc"), "s"),
        "fulfill.exact_s": (secs("fulfill.exact"), "s"),
        "fixtures.build_s": (secs("fixtures.build"), "s"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def make_tracer():
    from spans import Tracer

    def ball(t, args, kwargs, res):
        t.counts["cayley.ball_vertices"] += len(res.base.vertices)
        t.counts["cayley.ball_faces"] += len(res.base.faces)
        t.counts["cayley.incomplete_vertices"] += sum(not c for c in res.complete.values())

    def states(t, args, kwargs, res):
        t.counts["cayley.words_equal_states"] += res.states

    def decomposition(t, args, kwargs, res):
        t.counts["walls.walls"] += len(res.walls)

    def tree(t, args, kwargs, res):
        t.counts["walls.non_tree_walls"] += not res.tree

    def pairs(t, args, kwargs, res):
        t.counts["walls.lower_bound_pairs"] += len(res)

    def violations(t, args, kwargs, res):
        t.counts["enumeration.violations"] += len(res)

    def hit(t, args, kwargs, res):
        t.counts["fulfill.search_hits"] += res is not None

    return Tracer("squarewalls", [
        ("cli", "run", "cli", None),
        ("presentation", "sample_presentation", "presentation.sample", None),
        ("cayley", "build_ball", "cayley.build_ball", ball),
        ("cayley", "CayleyBall.to_json", "cayley.to_json", None),
        ("cayley", "words_equal", "cayley.words_equal", states),
        ("walls", "paint", "walls.paint", None),
        ("walls", "wall_decomposition", "walls.decomposition", decomposition),
        ("walls", "is_embedded_tree", "walls.tree_check", tree),
        ("walls", "check_wall_lower_bound", "walls.lower_bound", pairs),
        ("walls", "bfs_geodesic", "walls.bfs_geodesic", None),
        ("walls", "check_window_crossing", "walls.window_check", None),
        ("enumeration", "canonical_key", "enumeration.canonical_key", None),
        ("enumeration", "scan_local_iso", "enumeration.scan", violations),
        ("enumeration", "check_special_cells", "enumeration.special_cells", None),
        ("complexes", "build_quotient", "complexes.build_quotient", None),
        ("complexes", "cancellation", "complexes.cancellation", None),
        ("fulfill", "fulfill_search", "fulfill.search", hit),
        ("fulfill", "monte_carlo_set_fulfill", "fulfill.mc", None),
        ("fulfill", "exact_set_fulfill_probability", "fulfill.exact", None),
        ("fixtures", "make_fixture", "fixtures.build", None),
        ("fixtures", "z2_ball", "fixtures.build", None),
    ])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    from workloads import WORKLOADS, Round
    from checks import CheckFailed
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    lib = import_library()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    wl = WORKLOADS[args.workload](lib, WORK)
    tracer = make_tracer() if args.trace else None
    errors: list = []

    # One-time program work. A cheap prep is done again before every round
    # of an untraced run (preps_per_round times); traced runs do it once.
    prep = Round()
    with tracer or nullcontext():
        state = wl.prep(prep)
    preps = [prep]
    prep_trace = tracer.snapshot() if tracer else None
    if tracer:
        tracer.reset()

    def attempt(inputs, trace):
        rnd = Round()
        gc.collect()
        try:
            with tracer if trace else nullcontext():
                wl.round(state, inputs, rnd)
        except CheckFailed as exc:
            rnd.errors.append(str(exc))
        return rnd

    inputs = wl.inputs(args.seed)
    rounds, traced, overheads = [], [], []
    t_loop = time.perf_counter()
    while True:
        for _ in range(0 if tracer else wl.preps_per_round):
            preps.append(Round())
            gc.collect()
            wl.prep(preps[-1])
        rounds.append(attempt(inputs, False))
        if tracer:
            # the same inputs again, traced: the difference is the overhead
            traced.append(attempt(inputs, True))
            overheads.append(traced[-1].seconds() - rounds[-1].seconds())
        if time.perf_counter() - t_loop >= args.seconds:
            break
    if hasattr(wl, "final_check"):
        try:
            wl.final_check(state)
        except CheckFailed as exc:
            errors.append(str(exc))

    all_rounds = rounds + traced
    for rnd in preps + all_rounds:
        errors += rnd.errors
    attempted = sum(len(r.ops) for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for msg in errors[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    summary = {"workload": wl.name, "seed": args.seed, "rounds": len(rounds),
               "round_s": [round(r.seconds(), 3) for r in rounds],
               "ops_per_round": len(rounds[0].ops), "failed_per_round": rounds[0].failed,
               "check_failures": len(errors)}
    if tracer:
        extra = {
            "artifact_bytes": preps[0].facts.get("artifact_bytes", 0)
            + statistics.mean(r.facts.get("artifact_bytes", 0) for r in traced),
            "overhead_s": statistics.median(overheads),
        }
        metrics = layer_metrics(prep_trace, tracer.snapshot(), len(traced),
                                wl.layer_facts(state), extra)
    else:
        summary.update(wl.details(rounds, state))
        prep_s, run_s = typical_round(preps), typical_round(rounds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "prep_s": {"value": prep_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    shutil.rmtree(WORK, ignore_errors=True)
    print("summary " + json.dumps(summary, sort_keys=True, default=str))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
