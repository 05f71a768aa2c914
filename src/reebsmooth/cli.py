"""Command-line interface.

Subcommands:
  build      Reeb graph of a field on a mesh.
  smooth     smoothed Reeb graph (constant, dtm, or kernel factor); with both
             --eps and a measure factor, also verifies the interleaving maps
             between the two radius fields and embeds the reports.
  range      Reeb graph of the field pushed through a measure's surrogate CDF.
  stability  seeded stability trials (lower bound vs guaranteed upper bound).
  fig4       smoothing-scale sweep on the shipped three-loop fixture.

Field specs for --field: "height" (last coordinate), "csv:<path>" (one value
per line), "json:<path>" ({"vertex_values": [...]}), or an arithmetic
expression in x, y, z such as "x*x + sin(y)".

A --config file (JSON object or "key = value" lines) overrides flags.
Exit codes: 0 success, 2 parse error, 3 guard or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .complexes import ScalarField
from .errors import GuardViolation, ParseError, ValidationError
from .experiments import (
    ExperimentConfig,
    REPORT_VERSION,
    fig4_sweep,
    report_to_json,
    run_stability,
)
from .fileio import (
    complex_from_dict,
    dump_json,
    load_json,
    load_off,
    load_weighted_points,
    to_dot,
)
from .rangecdf import range_integrated_reeb
from .smoothing import (
    SmoothingFactor,
    build_local_interleaving,
    smooth_global,
    smooth_local,
    verify_commutativity,
    verify_function_preservation,
)
from .reeb import reeb_graph


def _load_mesh(path):
    if path is None:
        raise ParseError("--in is required")
    if str(path).endswith(".off"):
        return load_off(path), None
    data = load_json(path)
    return complex_from_dict(data, path=str(path))


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


def _field_from_spec(spec, X, embedded):
    if spec is None or spec == "embedded":
        if embedded is None and spec == "embedded":
            raise ParseError("mesh file carries no embedded field")
        if embedded is not None and spec is None:
            return embedded
        spec = spec or "height"
    if spec == "height":
        return ScalarField(X.coords[:, -1].copy())
    if spec.startswith("csv:"):
        path = spec[4:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                vals = []
                for n, line in enumerate(fh, start=1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    try:
                        vals.append(float(line))
                    except ValueError:
                        raise ParseError("bad field value", path=path, line=n) from None
        except OSError as exc:
            raise ParseError(str(exc), path=path) from None
        if len(vals) != X.n_vertices:
            raise ParseError(
                f"field has {len(vals)} values for {X.n_vertices} vertices", path=path
            )
        return ScalarField(np.asarray(vals))
    if spec.startswith("json:"):
        path = spec[5:]
        data = load_json(path)
        try:
            vals = np.asarray(data["vertex_values"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad field JSON: {exc}", path=path) from None
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
        vals = eval(spec, {"__builtins__": {}}, names)  # noqa: S307 - sandboxed names
    except Exception as exc:
        raise ParseError(f"bad field expression {spec!r}: {exc}") from None
    vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), (X.n_vertices,)).copy()
    return ScalarField(vals)


def _emit(graph, args, extra=None):
    payload = {"version": REPORT_VERSION, "graph": graph.to_dict()}
    if extra:
        payload.update(extra)
    if args.out:
        dump_json(payload, args.out)
    else:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    return 0


def cmd_build(args):
    X, embedded = _load_mesh(args.in_path)
    f = _field_from_spec(args.field, X, embedded)
    return _emit(reeb_graph(X, f), args)


def cmd_smooth(args):
    X, embedded = _load_mesh(args.in_path)
    f = _field_from_spec(args.field, X, embedded)
    measure = load_weighted_points(args.measure) if args.measure else None
    factors = []
    if args.eps is not None:
        factors.append(SmoothingFactor("constant", args.eps, r_min=args.rmin))
    if args.dtm is not None:
        factors.append(SmoothingFactor("dtm", args.dtm, r_min=args.rmin))
    if args.kernel is not None:
        factors.append(SmoothingFactor("kernel", args.kernel, r_min=args.rmin))
    if not factors:
        raise ValidationError("smooth needs one of --eps, --dtm, --kernel")
    if len(factors) > 2:
        raise ValidationError("smooth takes at most two factor flags")
    main_factor = factors[-1]
    if main_factor.kind == "constant":
        graph = smooth_global(X, f, main_factor.resolve(X).values[0])
    else:
        graph = smooth_local(X, f, main_factor, measure)
    extra = {}
    if len(factors) == 2:
        r1 = factors[0].resolve(X, measure)
        r2 = factors[1].resolve(X, measure)
        pair = build_local_interleaving(X, f, r1, r2)
        extra["interleaving"] = {
            "eps": pair.eps,
            "function_preservation": verify_function_preservation(pair),
            "commutativity": verify_commutativity(pair),
        }
    return _emit(graph, args, extra)


def cmd_range(args):
    X, embedded = _load_mesh(args.in_path)
    f = _field_from_spec(args.field, X, embedded)
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
    if args.threads is not None:
        cfg["threads"] = args.threads
    cfg.update(_config_overrides(args))
    config = ExperimentConfig.from_dict(cfg)
    report = run_stability(config)
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_fig4(args):
    kwargs = {}
    overrides = _config_overrides(args)
    for key in ("scales", "mass", "bandwidth", "kernel_scale_base"):
        if key in overrides:
            kwargs[key] = overrides[key]
    if args.scales:
        try:
            kwargs["scales"] = [float(s) for s in args.scales.split(",")]
        except ValueError:
            raise ParseError(f"bad --scales list: {args.scales!r}") from None
    report = fig4_sweep(**kwargs)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.dot:
        from .experiments import load_fig4_fixture

        X, f, mu = load_fig4_fixture()
        pick = report["crossover_scales"]
        scale = pick[0] if pick else report["config"]["scales"][0]
        for kind, param, eff in (
            ("dtm", report["config"]["mass"], scale),
            ("kernel", report["config"]["bandwidth"], scale * report["config"]["kernel_scale_base"]),
        ):
            graph = smooth_local(X, f, SmoothingFactor(kind, param, scale=eff), mu)
            with open(f"{args.dot}.{kind}.dot", "w", encoding="utf-8") as fh:
                fh.write(to_dot(graph))
    return 0


def _coerce_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _config_overrides(args):
    """Key-value config file contents; keys override same-named flags."""
    if not getattr(args, "config", None):
        return {}
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid config JSON: {exc.msg}", path=path, line=exc.lineno) from None
        if not isinstance(data, dict):
            raise ParseError("config must be a JSON object", path=path)
        return data
    out = {}
    for n, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ParseError("config lines look like 'key = value'", path=path, line=n)
        out[key.strip()] = _coerce_value(val.strip())
    return out


def _apply_flag_overrides(args):
    """Config-file keys matching flag names replace the parsed values."""
    overrides = _config_overrides(args)
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest == "in":
            dest = "in_path"
        if hasattr(args, dest) and dest not in ("config",):
            setattr(args, dest, value)
    return args


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="reebsmooth",
        description="Reeb graphs of PL fields with measure-driven smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, measure=False):
        p.add_argument("--in", dest="in_path", help="mesh file (.off or complex JSON)")
        p.add_argument("--field", default=None, help="height | csv:<path> | json:<path> | expression")
        p.add_argument("--out", default=None, help="write the JSON payload here (default stdout)")
        p.add_argument("--dot", default=None, help="also write a DOT rendering here")
        p.add_argument("--config", default=None, help="key-value file overriding flags")
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
    p.add_argument("--rmin", type=float, default=None, help="radius floor")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("range", help="range-integrated Reeb graph")
    io_flags(p, measure=True)
    p.set_defaults(func=cmd_range)

    p = sub.add_parser("stability", help="stability experiment trials")
    p.add_argument("--mode", choices=("dtm", "kernel", "range"), default="dtm")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="key-value file overriding flags")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("fig4", help="three-loop smoothing-scale sweep")
    p.add_argument("--scales", default=None, help="comma-separated scale multipliers")
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="prefix for DOT exports of the crossover graphs")
    p.add_argument("--config", default=None, help="key-value file overriding flags")
    p.set_defaults(func=cmd_fig4)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("build", "smooth", "range"):
            args = _apply_flag_overrides(args)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardViolation, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
