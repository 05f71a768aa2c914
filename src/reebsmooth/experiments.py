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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from importlib.resources import files

import numpy as np

from .complexes import ScalarField
from .diagrams import DEFAULT_PROXY_FACTOR, extended_persistence, interleaving_lower_bound
from .errors import ValidationError
from .fileio import complex_from_dict, parse_weighted_points
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

_MESH_BUILDERS = {
    "circle": lambda: circle_complex(48),
    "rig": lambda: three_loop_rig(),
    "torus": lambda: torus_mesh(12, 12),
}
_MESH_CACHE = {}


def _mesh(name):
    """Built-in mesh by name, or a mesh file path (.off or complex JSON)."""
    if name not in _MESH_CACHE:
        if name in _MESH_BUILDERS:
            _MESH_CACHE[name] = _MESH_BUILDERS[name]()
        else:
            from .fileio import load_json, load_off

            if str(name).endswith(".off"):
                X = load_off(name)
                f = ScalarField(X.coords[:, -1].copy())
            else:
                X, f = complex_from_dict(load_json(name), path=str(name))
                if f is None:
                    f = ScalarField(X.coords[:, -1].copy())
            _MESH_CACHE[name] = (X, f)
    return _MESH_CACHE[name]


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
    proxy_factor: float = DEFAULT_PROXY_FACTOR
    tolerance: float = 1e-9
    threads: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        if not (0 < self.mass <= 1):
            raise ValidationError("mass must lie in (0, 1]")
        if self.support < 2 or self.support > 32:
            raise ValidationError("support size must lie in [2, 32]")
        import os.path

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
        if "meshes" in data:
            data = dict(data, meshes=tuple(data["meshes"]))
        return cls(**data)


def _worker_count(config):
    if config.threads is not None:
        return max(1, int(config.threads))
    env = os.environ.get("REEB_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"REEB_THREADS must be an integer, got {env!r}") from None
    return 1


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


def _run_trial(config, trial):
    rng = np.random.default_rng([config.seed, trial])
    mesh_name = config.meshes[trial % len(config.meshes)]
    X, f = _mesh(mesh_name)
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

    lb = interleaving_lower_bound(graph1, graph2, config.proxy_factor)
    return {
        "trial": trial,
        "mesh": mesh_name,
        "lower_bound": float(lb),
        "upper_bound": float(rhs),
        "terms": {k: float(v) for k, v in terms.items()},
        "pass": bool(lb <= rhs + config.tolerance),
    }


def run_stability(config):
    """Run the seeded trials; the report is deterministic for a fixed config."""
    workers = _worker_count(config)
    indices = range(config.trials)
    if workers == 1:
        trials = [_run_trial(config, t) for t in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(lambda t: _run_trial(config, t), indices))
    violations = [t["trial"] for t in trials if not t["pass"]]
    # threads is an execution knob, not an experiment parameter: the report
    # must be byte-identical however the trials were scheduled
    cfg = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(config).items()}
    del cfg["threads"]
    report = {
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
    return report


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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


def fig4_sweep(
    scales=None,
    mass=None,
    bandwidth=None,
    kernel_scale_base=None,
    fixture=None,
):
    """Scan smoothing scales on the three-loop fixture under both factors.

    Reports per-scale loop survival and the crossover evidence: scales where
    the kernel factor keeps loop A but not B while the dtm factor keeps loop
    B but not A.
    """
    scales = tuple(scales) if scales is not None else FIG4_DEFAULTS["scales"]
    mass = mass if mass is not None else FIG4_DEFAULTS["mass"]
    bandwidth = bandwidth if bandwidth is not None else FIG4_DEFAULTS["bandwidth"]
    base = (
        kernel_scale_base
        if kernel_scale_base is not None
        else FIG4_DEFAULTS["kernel_scale_base"]
    )
    X, f, mu = fixture if fixture is not None else load_fig4_fixture()
    rows = []
    for s in scales:
        row = {"scale": float(s)}
        for kind, param, eff in (
            ("dtm", mass, float(s)),
            ("kernel", bandwidth, float(s) * base),
        ):
            graph = smooth_local(X, f, SmoothingFactor(kind, param, scale=eff), mu)
            dgm = extended_persistence(graph)
            row[kind] = {
                "betti1": int(graph.betti1()),
                "loops": _classify_loops(dgm),
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
            "mass": mass,
            "bandwidth": bandwidth,
            "kernel_scale_base": base,
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
