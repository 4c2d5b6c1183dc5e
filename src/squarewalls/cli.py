"""Command-line entry points for the pipeline.

Every artifact embeds {version, config, seed}; outputs are canonicalized
(sorted keys, sorted rows) so identical configurations produce identical
bytes. Exit codes: 0 = report written / checks pass, 1 = a checked
invariant failed, 2 = usage error (a bad flag or value, or an --in file
that cannot be read as what the command needs), 3 = an enumeration cap or
the ball's vertex budget cut the run short and it found nothing (the
artifact says complete: false).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import combinations

from . import __version__
from .cayley import BudgetExhausted, build_ball
from .complexes import IsoParams, SquareComplex, _id_in, _id_out
from .enumeration import EnumerationCursor, check_special_cells, scan_local_iso
from .fixtures import REGISTRY, make_fixture
from .fulfill import AbstractComplex, monte_carlo_set_fulfill
from .presentation import Presentation, sample_presentation
from .walls import (
    KINDS,
    PaintingConflict,
    TracingError,
    bfs_geodesic,
    check_wall_lower_bound,
    check_window_crossing,
    is_embedded_tree,
    paint,
    wall_decomposition,
)

_NON_CONFIG = {"func", "parser", "out", "infile"}
# the formats a command writes, when more than JSON
FORMATS = {"walls": ("json", "dot"), "wall-metric": ("json", "csv")}
TRUNCATED = 3  # exit status of a capped run that found nothing


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in _NON_CONFIG and v is not None}


def _envelope(args) -> dict:
    return {"version": __version__, "config": _config(args), "seed": args.seed}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_in(parser, path: str, key: str, cls):
    """The cls object stored in the JSON file at path, bare or under key in
    an artifact; a file that cannot be read as one is a usage error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read {path}: {exc}")
    if isinstance(doc, dict) and key in doc:
        doc = doc[key]
    try:
        return cls.from_json(json.dumps(doc))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        parser.error(f"{path} does not hold a {key}: {exc!r}")


def _load_complex(args, parser) -> SquareComplex:
    infile = getattr(args, "infile", None)
    if bool(infile) == bool(args.fixture):
        parser.error("provide exactly one of --in / --fixture")
    if infile:
        return _read_in(parser, infile, "complex", SquareComplex)
    kwargs = {name: getattr(args, name) for name in ("radius", "length", "k")
              if getattr(args, name) is not None}
    try:
        return make_fixture(args.fixture, **kwargs)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))


def _kinds(args, parser):
    kinds = tuple(k.strip() for k in args.kinds.split(","))
    for k in kinds:
        if k not in KINDS:
            parser.error(f"unknown wall kind {k!r}; known: {KINDS}")
    return kinds


def _vertex_token(v) -> str:
    return json.dumps(_id_out(v), sort_keys=True, separators=(",", ":"))


def _sample(args, parser) -> Presentation:
    try:
        return sample_presentation(args.rank, args.density, args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_sample(args, parser) -> int:
    P = _sample(args, parser)
    doc = _envelope(args)
    doc["presentation"] = json.loads(P.to_json())
    _emit_json(args, doc)
    return 0


def _cmd_enumerate(args, parser) -> int:
    counts: dict = {}
    try:
        cursor = EnumerationCursor(
            args.faces, parent_cap=args.parent_cap, level_cap=args.level_cap)
    except ValueError as exc:
        parser.error(str(exc))
    total = 0
    for Y in cursor:
        key = f"{len(Y.base.faces)},{Y.n_labels}"
        counts[key] = counts.get(key, 0) + 1
        total += 1
    doc = _envelope(args)
    doc["classes"] = total
    doc["classes_by_faces_labels"] = counts
    doc["complete"] = not cursor.truncated
    doc["work"] = cursor.work
    _emit_json(args, doc)
    return TRUNCATED if cursor.truncated else 0


def _cmd_scan_iso(args, parser) -> int:
    P = _sample(args, parser)
    try:
        params = IsoParams(d=args.density, eps=args.epsilon)
        cursor = EnumerationCursor(args.faces)
    except ValueError as exc:
        parser.error(str(exc))
    violations = scan_local_iso(list(P.relators), args.faces, params,
                                classes=cursor)
    doc = _envelope(args)
    doc["presentation"] = json.loads(P.to_json())
    doc["violations"] = [json.loads(v.to_json_line()) for v in violations]
    doc["complete"] = not cursor.truncated
    _emit_json(args, doc)
    if violations:
        return 1
    return TRUNCATED if cursor.truncated else 0


def _cmd_special_cells(args, parser) -> int:
    P = _sample(args, parser)
    report = check_special_cells(list(P.relators))
    doc = _envelope(args)
    doc["presentation"] = json.loads(P.to_json())
    doc["report"] = report.to_json_dict()
    _emit_json(args, doc)
    return 1 if report.cross_witness_count else 0


def _cmd_ball(args, parser) -> int:
    if args.infile:
        P = _read_in(parser, args.infile, "presentation", Presentation)
    else:
        P = _sample(args, parser)
    try:
        ball = build_ball(P, args.radius, args.hard_cap)
    except ValueError as exc:
        parser.error(str(exc))
    except BudgetExhausted as exc:
        doc = _envelope(args)
        doc["complete"] = False
        doc["budget_exhausted"] = str(exc)
        _emit_json(args, doc)
        return TRUNCATED
    doc = json.loads(ball.to_json())
    doc.update(_envelope(args))
    doc["work"] = ball.work
    doc["incomplete_vertices"] = sum(not c for c in ball.complete.values())
    _emit_json(args, doc)
    return 0


def _walls_or_report(args, X: SquareComplex, kinds):
    """The wall decomposition, or None after emitting an artifact that names
    why there is none (the command then exits 1): a painting_conflict when
    the complex admits no consistent label-level coloring, a tracing_error
    when a red or blue turn is undefined."""
    try:
        return wall_decomposition(paint(X), kinds)
    except PaintingConflict as exc:
        field, reason = "painting_conflict", str(exc)
    except TracingError as exc:
        field, reason = "tracing_error", str(exc)
    doc = _envelope(args)
    doc[field] = reason
    _emit_json(args, doc)
    return None


def _cmd_walls(args, parser) -> int:
    X = _load_complex(args, parser)
    W = _walls_or_report(args, X, _kinds(args, parser))
    if W is None:
        return 1
    edge, face = X.names.edges, X.names.faces
    if args.format == "dot":
        lines = [f"// {json.dumps(_envelope(args), sort_keys=True)}"]
        for i, H in enumerate(W.walls):
            lines.append(f'graph "{H.kind}_{i}" {{')
            for e in sorted(H.vertices):
                lines.append(f'  "{_vertex_token(edge[e])}";')
            for a, b, fid in H.edges:
                lines.append(f'  "{_vertex_token(edge[a])}" -- "{_vertex_token(edge[b])}"'
                             f' [label="{_vertex_token(face[fid])}"];')
            lines.append("}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    doc = _envelope(args)
    doc["walls"] = []
    for H, rep in zip(W.walls, W.reports):
        tree = is_embedded_tree(H)
        doc["walls"].append({
            "kind": H.kind,
            "dual_edges": [_id_out(edge[e]) for e in sorted(H.vertices)],
            "carrier": [_id_out(face[f]) for f in sorted(H.carrier)],
            "segments": [[_id_out(edge[a]), _id_out(edge[b]), _id_out(face[f])]
                         for a, b, f in H.edges],
            "complement_count": rep.count,
            "boundary_open": rep.boundary_open,
            "embedded_tree": tree.tree,
        })
    _emit_json(args, doc)
    return 0


def _cmd_wall_metric(args, parser) -> int:
    X = _load_complex(args, parser)
    W = _walls_or_report(args, X, _kinds(args, parser))
    if W is None:
        return 1
    # every pair x < y, grouped by source vertex in id order
    reports = check_wall_lower_bound(W, X, combinations(X.vertices, 2))
    failed = any(r.status == "violation" for r in reports)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(f"# {json.dumps(_envelope(args), sort_keys=True)}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x", "y", "d_edge", "d_wall", "bound", "status"])
        token = [_vertex_token(v) for v in X.names.vertices]
        for r in reports:
            w.writerow([token[r.x], token[r.y],
                        r.d_edge, r.d_wall, r.bound, r.status])
        _emit(args, buf.getvalue())
    else:
        name = X.names.vertices
        doc = _envelope(args)
        doc["rows"] = [
            {"x": _id_out(name[r.x]), "y": _id_out(name[r.y]), "d_edge": r.d_edge,
             "d_wall": r.d_wall, "bound": r.bound, "status": r.status}
            for r in reports
        ]
        _emit_json(args, doc)
    return 1 if failed else 0


def _cmd_windows(args, parser) -> int:
    X = _load_complex(args, parser)
    W = _walls_or_report(args, X, _kinds(args, parser))
    if W is None:
        return 1
    try:
        x = _id_in(json.loads(args.src))
        y = _id_in(json.loads(args.dst))
    except json.JSONDecodeError as exc:
        parser.error(f"--from/--to must be JSON vertex ids: {exc}")
    ends = []
    for flag, v in (("--from", x), ("--to", y)):
        try:
            ends.append(X.ids.vertices[v])
        except (KeyError, TypeError):  # unknown, or unhashable as a JSON object is
            parser.error(f"{flag}: unknown vertex {_vertex_token(v)}")
    try:
        path = [X.names.edges[e] for e in bfs_geodesic(X, *ends)[1]]
        report = check_window_crossing(X, W, path)
    except ValueError as exc:
        parser.error(str(exc))
    doc = _envelope(args)
    doc["geodesic_length"] = report.geodesic_length
    doc["statuses"] = list(report.statuses)
    doc["all_pass"] = report.all_pass
    _emit_json(args, doc)
    return 1 if "fail" in report.statuses else 0


def _cmd_fulfill_mc(args, parser) -> int:
    Y = _read_in(parser, args.infile, "complex", AbstractComplex)
    try:
        report = monte_carlo_set_fulfill(Y, args.rank, args.density,
                                         args.trials, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    out = _envelope(args)
    out["report"] = report.to_json_dict()
    _emit_json(args, out)
    return 0


def _cmd_fixtures(args, parser) -> int:
    X = _load_complex(args, parser)
    doc = _envelope(args)
    doc["complex"] = json.loads(X.to_json())
    _emit_json(args, doc)
    return 0


def _add_common(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=0)


def _add_input(sp, fixture_only=False):
    if not fixture_only:
        sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--fixture" if not fixture_only else "--name",
                    dest="fixture", choices=sorted(REGISTRY), default=None,
                    required=fixture_only)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--length", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarewalls",
        description="square-model presentations, Cayley balls, and walls")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a presentation")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sample, parser=sp)

    sp = sub.add_parser("enumerate", help="count abstract complex classes")
    sp.add_argument("--faces", type=int, required=True)
    sp.add_argument("--parent-cap", type=int, default=400)
    sp.add_argument("--level-cap", type=int, default=2500)
    _add_common(sp)
    sp.set_defaults(func=_cmd_enumerate, parser=sp)

    sp = sub.add_parser("scan-iso", help="scan enumerated complexes for "
                                         "cancellation over the density bound")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    sp.add_argument("--faces", type=int, default=2)
    sp.add_argument("--epsilon", type=float, default=0.05)
    _add_common(sp)
    sp.set_defaults(func=_cmd_scan_iso, parser=sp)

    sp = sub.add_parser("special-cells", help="search relator pairs for "
                                              "three-shares and collared third faces")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_special_cells, parser=sp)

    sp = sub.add_parser("ball", help="build a Cayley-complex ball")
    sp.add_argument("--in", dest="infile", default=None,
                    help="presentation JSON (else sample from rank/density/seed)")
    sp.add_argument("--rank", type=int, default=2)
    sp.add_argument("--density", type=float, default=0.25)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--hard-cap", type=int, default=10**6)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ball, parser=sp)

    sp = sub.add_parser("walls", help="trace and report hypergraph walls")
    _add_input(sp)
    sp.add_argument("--kinds", default="standard,red,blue")
    _add_common(sp)
    sp.set_defaults(func=_cmd_walls, parser=sp)

    sp = sub.add_parser("wall-metric", help="wall-separation counts vs edge "
                                            "distance for all vertex pairs")
    _add_input(sp)
    sp.add_argument("--kinds", default="standard,red,blue")
    _add_common(sp)
    sp.set_defaults(func=_cmd_wall_metric, parser=sp)

    sp = sub.add_parser("windows", help="wall crossings in geodesic windows")
    _add_input(sp)
    sp.add_argument("--kinds", default="standard,red,blue")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_windows, parser=sp)

    sp = sub.add_parser("fulfill-mc", help="Monte Carlo set-level fulfill "
                                           "probability for an abstract complex")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--density", type=float, required=True)
    sp.add_argument("--trials", type=int, default=2000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fulfill_mc, parser=sp)

    sp = sub.add_parser("fixtures", help="emit a built-in fixture complex")
    _add_input(sp, fixture_only=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_fixtures, parser=sp)

    for name, sp in sub.choices.items():
        sp.add_argument("--format", choices=FORMATS.get(name, ("json",)),
                        default="json")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first run rather than at
    import. Parsing leaves it unchanged, and the commands it dispatches to
    read module globals when they run."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    # each command reports usage errors with its own subparser, whose usage
    # line names the command and its flags
    return args.func(args, args.parser)


def main() -> None:
    sys.exit(run())
