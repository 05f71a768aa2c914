"""Stability harness and the two-loop crossover sweep.

run_stability draws seeded random perturbations of a field and a measure,
smooths both sides, and checks that a certified lower bound on the
interleaving distance stays below the theoretical upper bound for the chosen
smoothing mode.  All right-hand sides are computed exactly (not estimated):
sup-norm field gaps are attained at vertices for PL fields, the 2-Wasserstein
and kernel distances come from exact solvers, and KS/Lipschitz constants of
the surrogate CDFs are exact suprema over their knots.

fig4_sweep scans the smoothing-scale multiplier on the three-loop fixture and
reports which loops survive under the dtm factor versus the kernel factor.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from importlib.resources import files

import numpy as np

from .complexes import height_field
from .diagrams import extended_persistence, interleaving_lower_bound
from .errors import ValidationError
from .fileio import complex_from_dict, load_mesh, parse_weighted_points
from .measures import (
    EmpiricalMeasure,
    KernelSpec,
    cdf_of_measure,
    kernel_distance,
    ks_distance,
    wasserstein2,
)
from .meshes import circle_complex, three_loop_rig, torus_mesh
from .rangecdf import compose_cdf
from .reeb import reeb_graph
from .smoothing import SmoothingFactor, smooth_local

MODES = ("dtm", "kernel", "range")
REPORT_VERSION = 1
TOLERANCE = 1e-9  # a trial passes when its lower bound is at most upper bound + this

_MESH_BUILDERS = {
    "circle": lambda: circle_complex(48),
    "rig": lambda: three_loop_rig(),
    "torus": lambda: torus_mesh(12, 12),
}
_MESH_CACHE = {}


def _mesh(name):
    """A built-in mesh by name, built once per process, or a mesh file path
    (.off or complex JSON), read on every call."""
    if name not in _MESH_BUILDERS:
        X, f = load_mesh(name)
        return X, height_field(X) if f is None else f
    if name not in _MESH_CACHE:
        _MESH_CACHE[name] = _MESH_BUILDERS[name]()
    return _MESH_CACHE[name]


def _finite(x, kind=numbers.Real):
    """A finite number of the given kind; bools do not count."""
    return isinstance(x, kind) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for run_stability. Defaults match the acceptance runs."""

    mode: str = "dtm"
    trials: int = 100
    seed: int = 0
    meshes: tuple = ("circle", "rig", "torus")
    support: int = 12
    mass: float = 0.25
    bandwidth: float = 0.5
    bump_amplitude: float = 0.15
    jitter: float = 0.08
    threads: int | None = None  # None or 1: trials run in order on one thread

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if not (_finite(self.trials, numbers.Integral) and self.trials >= 1):
            raise ValidationError("trials must be a positive integer")
        if not (_finite(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError("seed must be a non-negative integer")
        if not (_finite(self.mass) and 0 < self.mass <= 1):
            raise ValidationError("mass must lie in (0, 1]")
        if not (_finite(self.support, numbers.Integral) and 2 <= self.support <= 32):
            raise ValidationError("support size must be an integer in [2, 32]")
        if not (_finite(self.jitter) and self.jitter >= 0):
            raise ValidationError("jitter must be finite and non-negative")
        if not (_finite(self.bump_amplitude) and self.bump_amplitude >= 0):
            raise ValidationError("bump_amplitude must be finite and non-negative")
        if not (_finite(self.bandwidth) and self.bandwidth > 0):
            raise ValidationError("bandwidth must be finite and positive")
        if self.threads is not None and not (
            _finite(self.threads, numbers.Integral) and self.threads == 1
        ):
            raise ValidationError("threads must be 1: trials run on one thread")
        if not (
            isinstance(self.meshes, (list, tuple))
            and self.meshes
            and all(isinstance(m, str) for m in self.meshes)
        ):
            raise ValidationError("meshes must be a non-empty list of mesh names")
        object.__setattr__(self, "meshes", tuple(self.meshes))
        unknown = [
            m for m in self.meshes if m not in _MESH_BUILDERS and not os.path.exists(m)
        ]
        if unknown:
            raise ValidationError(f"unknown meshes (not built-in, not a file): {unknown}")

    @classmethod
    def from_dict(cls, data):
        allowed = set(cls.__dataclass_fields__)
        bad = set(data) - allowed
        if bad:
            raise ValidationError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)


def _bump_field(rng, X, amplitude):
    """A random PL bump; its sup norm is attained at a vertex by linearity."""
    center = X.coords[int(rng.integers(X.n_vertices))]
    diam = max(X.domain_diameter(), 1e-9)
    width = diam * (0.1 + 0.4 * float(rng.random()))
    height = amplitude * (0.3 + 0.7 * float(rng.random()))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    d2 = ((X.coords - center) ** 2).sum(axis=1)
    return sign * height * np.exp(-d2 / (2.0 * width**2))


def _measure_near(rng, X, n, jitter):
    idx = rng.integers(0, X.n_vertices, size=n)
    pts = X.coords[idx] + rng.normal(0.0, jitter, size=(n, X.coord_dim))
    return EmpiricalMeasure.from_raw(pts, rng.dirichlet(np.ones(n)))


def _perturbed_measure(rng, mu, jitter):
    if jitter == 0:
        return mu
    pts = mu.points + rng.uniform(-jitter, jitter, size=mu.points.shape)
    w = 0.5 * (mu.weights + rng.dirichlet(np.ones(mu.support_size)))
    return EmpiricalMeasure.from_raw(pts, w)


def _interval_measure(rng, lo, hi, n):
    span = hi - lo
    pts = rng.uniform(lo - 0.25 * span, hi + 0.25 * span, size=n)
    while len(np.unique(pts)) < 2:
        pts = rng.uniform(lo - 0.25 * span, hi + 0.25 * span, size=n)
    return EmpiricalMeasure.from_raw(pts[:, None], rng.dirichlet(np.ones(n)))


def _run_trial(config, meshes, trial):
    rng = np.random.default_rng([config.seed, trial])
    mesh_name = config.meshes[trial % len(config.meshes)]
    X, f = meshes[mesh_name]
    bump = _bump_field(rng, X, config.bump_amplitude)
    g_vals = f.values + bump
    gap = float(np.abs(bump).max())

    if config.mode == "range":
        lo, hi = float(f.values.min()), float(max(f.values.max(), g_vals.max()))
        lo = float(min(lo, g_vals.min()))
        mu = _interval_measure(rng, lo, hi, config.support)
        # jitter = 0 pins nu = mu, the degenerate case where the bound is 0
        if config.jitter == 0.0:
            nu = mu
        else:
            nu = _interval_measure(rng, lo, hi, config.support)
        F, G = cdf_of_measure(mu), cdf_of_measure(nu)
        graph1 = reeb_graph(X, compose_cdf(f, F))
        graph2 = reeb_graph(X, compose_cdf(g_vals, G))
        ks = ks_distance(F, G)
        rhs = min(
            ks + F.lipschitz_bound() * gap,
            ks + G.lipschitz_bound() * gap,
            1.0,
        )
        terms = {
            "ks": ks,
            "lip_mu": F.lipschitz_bound(),
            "lip_nu": G.lipschitz_bound(),
            "field_gap": gap,
        }
    else:
        mu = _measure_near(rng, X, config.support, config.jitter)
        nu = _perturbed_measure(rng, mu, config.jitter)
        if config.mode == "dtm":
            factor = SmoothingFactor("dtm", config.mass)
            w2 = wasserstein2(mu, nu)
            rhs = gap + w2 / np.sqrt(config.mass)
            terms = {"w2": w2, "mass": config.mass, "field_gap": gap}
        else:
            factor = SmoothingFactor("kernel", config.bandwidth)
            dk = kernel_distance(mu, nu, KernelSpec(config.bandwidth))
            rhs = gap + dk
            terms = {"kernel_gap": dk, "bandwidth": config.bandwidth, "field_gap": gap}
        graph1 = smooth_local(X, f, factor, mu)
        graph2 = smooth_local(X, g_vals, factor, nu)

    lb = interleaving_lower_bound(graph1, graph2)
    return {
        "trial": trial,
        "mesh": mesh_name,
        "lower_bound": float(lb),
        "upper_bound": float(rhs),
        "terms": {k: float(v) for k, v in terms.items()},
        "pass": bool(lb <= rhs + TOLERANCE),
    }


def run_stability(config):
    """Run the seeded trials; the report is deterministic for a fixed config."""
    meshes = {name: _mesh(name) for name in config.meshes}
    trials = [_run_trial(config, meshes, t) for t in range(config.trials)]
    violations = [t["trial"] for t in trials if not t["pass"]]
    # threads names no experiment parameter, so the report leaves it out
    cfg = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}
    del cfg["threads"]
    return {
        "version": REPORT_VERSION,
        "config": cfg,
        "mode": config.mode,
        "n_trials": config.trials,
        "trials": trials,
        "violations": violations,
        "max_excess": max(
            (t["lower_bound"] - t["upper_bound"] for t in trials), default=0.0
        ),
        "all_pass": not violations,
    }


# -- three-loop crossover sweep -------------------------------------------------

# classification bands for surviving loops, in units of the fixture geometry:
# smoothing only shrinks a loop's value span inward, so a survivor of loop A
# (y in [-0.42, 0.03]) or loop B (y in [0.10, 0.40]) stays inside a padded
# copy of its parent band; anything else is the outer loop's remnant
_ALPHA_BAND = (-0.43, 0.04)
_BETA_BAND = (0.09, 0.41)

FIG4_DEFAULTS = {
    "mass": 0.025,
    "bandwidth": 0.3,
    "kernel_scale_base": 0.15,
    "scales": tuple(round(0.25 * k, 4) for k in range(1, 17)),
}


def load_fig4_fixture():
    """The shipped three-loop mesh, its height field and tuned measure."""
    root = files("reebsmooth") / "fixtures"
    X, f = complex_from_dict(json.loads((root / "fig4_mesh.json").read_text()))
    # The measure is tuned for the rig's two smoothing regimes.  A heavy,
    # sparse ring of mass just inside loop A (bottom left): much total mass
    # near A keeps its kernel distance low, while the standoff from A's
    # vertices keeps its distance-to-measure moderate.  A light, dense chain
    # of points on loop B (top right): tiny nearest-point distances keep its
    # distance-to-measure low, while the small total mass leaves its kernel
    # distance high.
    mu = parse_weighted_points((root / "fig4_measure.csv").read_text())
    if f is None:
        raise ValidationError("fig4 fixture is missing its field")
    return X, f, mu


def _classify_loops(diagram):
    names = set()
    for p in diagram.group(1, "extended"):
        top, bottom = p.birth, p.death
        if _ALPHA_BAND[0] <= bottom and top <= _ALPHA_BAND[1]:
            names.add("alpha")
        elif _BETA_BAND[0] <= bottom and top <= _BETA_BAND[1]:
            names.add("beta")
        else:
            names.add("outer")
    return sorted(names)


def fig4_graphs(fixture, scale):
    """The fixture's Reeb graphs smoothed at one scale, by kind ("dtm", "kernel").

    `fixture` is `load_fig4_fixture()`.  The dtm factor uses the scale as is,
    the kernel factor the scale times FIG4_DEFAULTS["kernel_scale_base"].
    """
    X, f, mu = fixture
    s = float(scale)
    factors = {
        "dtm": SmoothingFactor("dtm", FIG4_DEFAULTS["mass"], scale=s),
        "kernel": SmoothingFactor(
            "kernel", FIG4_DEFAULTS["bandwidth"], scale=s * FIG4_DEFAULTS["kernel_scale_base"]
        ),
    }
    return {kind: smooth_local(X, f, factor, mu) for kind, factor in factors.items()}


def fig4_sweep(scales=FIG4_DEFAULTS["scales"]):
    """Scan smoothing scales on the three-loop fixture under both factors.

    Reports per-scale loop survival and the crossover evidence: scales where
    the kernel factor keeps loop A but not B while the dtm factor keeps loop
    B but not A.  The mass, bandwidth and kernel scale base are the fixture's
    (FIG4_DEFAULTS): its measure is tuned for them.
    """
    scales = tuple(scales) if np.iterable(scales) else ()
    if not (scales and all(_finite(s) and s > 0 for s in scales)):
        raise ValidationError("scales must be a non-empty list of finite positive numbers")
    fixture = load_fig4_fixture()
    rows = []
    for s in scales:
        row = {"scale": float(s)}
        for kind, graph in fig4_graphs(fixture, s).items():
            row[kind] = {
                "betti1": int(graph.betti1()),
                "loops": _classify_loops(extended_persistence(graph)),
            }
        rows.append(row)
    kernel_a_not_b = [
        r["scale"]
        for r in rows
        if "alpha" in r["kernel"]["loops"] and "beta" not in r["kernel"]["loops"]
    ]
    dtm_b_not_a = [
        r["scale"]
        for r in rows
        if "beta" in r["dtm"]["loops"] and "alpha" not in r["dtm"]["loops"]
    ]
    crossover = sorted(set(kernel_a_not_b) & set(dtm_b_not_a))

    def last_scale(kind, loop):
        alive = [r["scale"] for r in rows if loop in r[kind]["loops"]]
        return max(alive) if alive else None

    retention = {
        kind: {loop: last_scale(kind, loop) for loop in ("alpha", "beta", "outer")}
        for kind in ("dtm", "kernel")
    }
    kernel_order = (retention["kernel"]["alpha"] or 0.0) > (
        retention["kernel"]["beta"] or 0.0
    )
    dtm_order = (retention["dtm"]["beta"] or 0.0) > (retention["dtm"]["alpha"] or 0.0)
    return {
        "version": REPORT_VERSION,
        "config": {
            "mass": FIG4_DEFAULTS["mass"],
            "bandwidth": FIG4_DEFAULTS["bandwidth"],
            "kernel_scale_base": FIG4_DEFAULTS["kernel_scale_base"],
            "scales": [float(s) for s in scales],
        },
        "rows": rows,
        "kernel_alpha_without_beta": kernel_a_not_b,
        "dtm_beta_without_alpha": dtm_b_not_a,
        "crossover_scales": crossover,
        "last_surviving_scale": retention,
        "kernel_retains_alpha_longer": bool(kernel_order),
        "dtm_retains_beta_longer": bool(dtm_order),
        "qualitative_pass": bool(crossover and kernel_order and dtm_order),
    }
