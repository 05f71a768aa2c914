"""Command-line interface.

Subcommands:
  build      Reeb graph of a field on a mesh.
  smooth     smoothed Reeb graph (constant, dtm, or kernel factor); with both
             --eps and a measure factor, also verifies the interleaving maps
             between the two radius fields and embeds the reports.
  range      Reeb graph of the field pushed through a measure's surrogate CDF.
  stability  seeded stability trials (lower bound vs guaranteed upper bound).
  fig4       smoothing-scale sweep on the shipped three-loop fixture.

Field specs for --field: "embedded" (the field stored in a complex JSON; the
default when there is one), "height" (last coordinate; the default
otherwise), "csv:<path>" (one value per line), "json:<path>"
({"vertex_values": [...]}), or an arithmetic expression in x, y, z such as
"x*x + sin(y)".

The stability subcommand takes a --config file (JSON object or
"key = value" lines) whose keys override its flags.
Exit codes: 0 success, 2 parse error or a file that cannot be read or
written, 3 guard or validation error, 4 a stability report with violations
(the report is still written).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .complexes import ScalarField, height_field
from .errors import GuardViolation, ParseError, ValidationError
from .experiments import (
    ExperimentConfig,
    REPORT_VERSION,
    fig4_graphs,
    fig4_sweep,
    load_fig4_fixture,
    run_stability,
)
from .fileio import (
    dump_json,
    field_from_dict,
    load_config,
    load_field_csv,
    load_json,
    load_mesh,
    load_weighted_points,
    to_dot,
    write_text,
)
from .fileio import load_off  # noqa: F401  unused; traced by perfbench/tracer.py
from .rangecdf import range_integrated_reeb
from .smoothing import (
    SmoothingFactor,
    build_local_interleaving,
    smooth_local,
    verify_commutativity,
    verify_function_preservation,
)
from .reeb import reeb_graph


_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


def _mesh_and_field(args):
    """The --in mesh, and the field that --field names on it."""
    if args.in_path is None:
        raise ParseError("--in is required")
    X, embedded = load_mesh(args.in_path)
    return X, _field_from_spec(args.field, X, embedded)


def _field_from_spec(spec, X, embedded):
    if spec is None:
        spec = "height" if embedded is None else "embedded"
    if spec == "embedded":
        if embedded is None:
            raise ParseError("mesh file carries no embedded field")
        return embedded
    if spec == "height":
        return height_field(X)
    if spec.startswith(("csv:", "json:")):
        kind, path = spec.split(":", 1)
        if kind == "csv":
            vals = load_field_csv(path)
        else:
            vals = field_from_dict(load_json(path), path=path).values
        if len(vals) != X.n_vertices:
            raise ParseError(
                f"field has {len(vals)} values for {X.n_vertices} vertices", path=path
            )
        return ScalarField(vals)
    # arithmetic expression over the coordinates
    names = dict(_EXPR_NAMES)
    for axis, label in enumerate("xyz"[: X.coord_dim]):
        names[label] = X.coords[:, axis]
    try:
        vals = np.asarray(eval(spec, {"__builtins__": {}}, names))  # noqa: S307 - sandboxed names
    except Exception as exc:
        raise ParseError(f"bad field expression {spec!r}: {exc}") from None
    if vals.dtype.kind not in "biuf" or vals.shape not in ((), (1,), (X.n_vertices,)):
        raise ParseError(
            f"field expression {spec!r} gives {vals.dtype} values of shape {vals.shape}, "
            f"not one real number per vertex ({X.n_vertices})"
        )
    return ScalarField(np.broadcast_to(vals, (X.n_vertices,)).astype(np.float64))


def _emit(graph, args, extra=None):
    payload = {"version": REPORT_VERSION, "graph": graph.to_dict()}
    if extra:
        payload.update(extra)
    dump_json(payload, args.out)
    if args.dot:
        write_text(to_dot(graph), args.dot)
    return 0


def cmd_build(args):
    X, f = _mesh_and_field(args)
    return _emit(reeb_graph(X, f), args)


def cmd_smooth(args):
    X, f = _mesh_and_field(args)
    measure = load_weighted_points(args.measure) if args.measure else None
    factors = [
        SmoothingFactor(kind, param)
        for kind, param in (("constant", args.eps), ("dtm", args.dtm), ("kernel", args.kernel))
        if param is not None
    ]
    if not factors:
        raise ValidationError("smooth needs one of --eps, --dtm, --kernel")
    if len(factors) > 2:
        raise ValidationError("smooth takes at most two factor flags")
    radii = [factor.resolve(X, measure) for factor in factors]
    graph = smooth_local(X, f, radii[-1])
    extra = {}
    if len(radii) == 2:
        pair = build_local_interleaving(X, f, *radii)
        extra["interleaving"] = {
            "eps": pair.eps,
            "function_preservation": verify_function_preservation(pair),
            "commutativity": verify_commutativity(pair),
        }
    return _emit(graph, args, extra)


def cmd_range(args):
    X, f = _mesh_and_field(args)
    if not args.measure:
        raise ValidationError("range needs --measure")
    mu = load_weighted_points(args.measure)
    graph, cdf = range_integrated_reeb(X, f, mu)
    extra = {
        "cdf": {
            "knots": [float(k) for k in cdf.knots],
            "values": [float(v) for v in cdf.values],
            "lipschitz_bound": cdf.lipschitz_bound(),
        }
    }
    return _emit(graph, args, extra)


def cmd_stability(args):
    cfg = {
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.config:
        cfg.update(load_config(args.config))
    config = ExperimentConfig.from_dict(cfg)
    report = run_stability(config)
    dump_json(report, args.out)
    return 4 if report["violations"] else 0


def cmd_fig4(args):
    kwargs = {}
    if args.scales is not None:
        try:
            kwargs["scales"] = [float(s) for s in args.scales.split(",")]
        except ValueError:
            raise ParseError(f"bad --scales list: {args.scales!r}") from None
    report = fig4_sweep(**kwargs)
    dump_json(report, args.out)
    if args.dot:
        pick = report["crossover_scales"]
        scale = pick[0] if pick else report["config"]["scales"][0]
        for kind, graph in fig4_graphs(load_fig4_fixture(), scale).items():
            write_text(to_dot(graph), f"{args.dot}.{kind}.dot")
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="reebsmooth",
        description="Reeb graphs of PL fields with measure-driven smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, measure=False):
        p.add_argument("--in", dest="in_path", help="mesh file (.off or complex JSON)")
        p.add_argument(
            "--field", default=None, help="embedded | height | csv:<path> | json:<path> | expression"
        )
        p.add_argument("--out", default=None, help="write the JSON payload here (default stdout)")
        p.add_argument("--dot", default=None, help="also write a DOT rendering here")
        if measure:
            p.add_argument("--measure", default=None, help="weighted points CSV")

    p = sub.add_parser("build", help="Reeb graph of a field on a mesh")
    io_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("smooth", help="smoothed Reeb graph")
    io_flags(p, measure=True)
    p.add_argument("--eps", type=float, default=None, help="constant smoothing radius")
    p.add_argument("--dtm", type=float, default=None, metavar="M", help="distance-to-measure factor")
    p.add_argument("--kernel", type=float, default=None, metavar="SIGMA", help="kernel-distance factor")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("range", help="range-integrated Reeb graph")
    io_flags(p, measure=True)
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("stability", help="stability experiment trials")
    p.add_argument("--mode", choices=("dtm", "kernel", "range"), default="dtm")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="key-value file overriding flags")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("fig4", help="three-loop smoothing-scale sweep")
    p.add_argument("--scales", default=None, help="comma-separated scale multipliers")
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="prefix for DOT exports of the crossover graphs")
    p.set_defaults(func=cmd_fig4)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardViolation, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
