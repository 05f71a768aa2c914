"""Smoothing of PL scalar fields, and explicit interleaving maps.

The smoothing of f by radii r is the Reeb graph of f + t on the thickening
{(x, t) : |t| <= r(x)}: global smoothing uses a constant radius, local
smoothing a per-vertex radius resolved from a smoothing factor (constant,
distance-to-measure, or kernel-distance).  Smoothing never builds that
thickening.  The staircase prism over a base simplex is convex and f + t is
linear on it, so each base simplex is active on the window
[min (f - r), max (f + r)] over its vertices, and the sweep runs on the base
complex with those windows (`reeb.window_reeb_graph`).  The staircase
thickening in `complexes` is the reference construction it is tested against.

The interleaving-map builders return concrete vertex-level maps between two
thickenings whose defining identities can be verified numerically: function
preservation and homotopy commutativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (
    ScalarField,
    SimplicialComplex,
    VectorField,
    as_scalar_field,
    constant_radii,
    thickened_vertices,
    thickening_inputs,
)
from .complexes import thicken_global, thicken_local  # noqa: F401  unused; traced by perfbench/tracer.py
from .errors import ValidationError
from .measures import KernelSpec, dtm_field, kdist_field
from .reeb import ReebGraph, realize_as_complex, window_reeb_graph
from .reeb import reeb_graph  # noqa: F401  unused; traced by perfbench/tracer.py


def clamp_projection(t, r):
    """Nearest-point projection of offsets onto [-r, r] (componentwise)."""
    t = np.asarray(t, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    return np.clip(t, -r, r)


def _default_floor(X):
    d = X.domain_diameter()
    return 1e-6 * d if d > 0 else 1e-6


@dataclass(frozen=True)
class SmoothingFactor:
    """Recipe for a per-vertex smoothing radius.

    kind "constant" uses param as the radius; "dtm" uses the distance to a
    measure with mass parameter param; "kernel" uses the kernel distance to a
    measure with Gaussian bandwidth param.  The resolved field is scale times
    the raw values.  dtm and kernel radii are floored at 1e-6 times the
    domain diameter, since a vertex on the measure's support may get 0;
    a constant radius is positive already and is not floored.
    """

    kind: str
    param: float
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "dtm", "kernel"):
            raise ValidationError(f"unknown smoothing factor kind {self.kind!r}")
        if not (np.isfinite(self.param) and self.param > 0):
            raise ValidationError("smoothing factor parameter must be positive")
        if self.kind == "dtm" and self.param > 1.0:
            raise ValidationError("dtm mass parameter must lie in (0, 1]")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError("smoothing scale must be positive")

    def resolve(self, X, measure=None):
        """Per-vertex radius field on X (requires a measure except for constant)."""
        if self.kind == "constant":
            return ScalarField(np.full(X.n_vertices, self.scale * self.param))
        if measure is None:
            raise ValidationError(f"{self.kind} smoothing factor needs a measure")
        if self.kind == "dtm":
            raw = dtm_field(X, measure, self.param).values
        else:
            raw = kdist_field(X, measure, KernelSpec(self.param)).values
        return ScalarField(np.maximum(self.scale * raw, _default_floor(X)))


def _coerce_domain(domain, f):
    if isinstance(domain, ReebGraph):
        if f is not None:
            raise ValidationError("pass f=None when smoothing a Reeb graph directly")
        return realize_as_complex(domain)
    if not isinstance(domain, SimplicialComplex):
        raise ValidationError("domain must be a SimplicialComplex or ReebGraph")
    if f is None:
        raise ValidationError("a scalar field is required")
    return domain, as_scalar_field(f)


def _smoothed(X, fld, r_values):
    """Reeb graph of f + t over {|t| <= r}, swept on the base complex X."""
    f_vals, r = thickening_inputs(X, fld, r_values)
    # the same float operations as the thickened field f(base) + offset
    return window_reeb_graph(X, f_vals + (-r), f_vals + r)


def smooth_global(domain, f, eps):
    """Reeb graph of the eps-thickened field (constant radius eps)."""
    X, fld = _coerce_domain(domain, f)
    return _smoothed(X, fld, constant_radii(X, eps))


def smooth_local(domain, f, factor, measure=None):
    """Reeb graph of the field thickened by per-vertex radii.

    `factor` may be a SmoothingFactor, a ScalarField of radii, or a plain
    array of per-vertex radii.
    """
    X, fld = _coerce_domain(domain, f)
    if isinstance(factor, SmoothingFactor):
        r = factor.resolve(X, measure)
    else:
        r = as_scalar_field(factor)
    return _smoothed(X, fld, r.values)


# -- interleaving maps ---------------------------------------------------------


@dataclass(frozen=True)
class VertexMap:
    """One direction of an interleaving: per source vertex, where it lands.

    For thickened sources, row i covers source vertex (base[i], source_offset[i]);
    the image point is (base[i], target_offset[i]) in the target region together
    with the leftover thickening coordinate residual[i] (bounded by eps).
    """

    base: np.ndarray
    source_offset: np.ndarray
    target_offset: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class InterleavingMapPair:
    """A pair of maps phi, psi witnessing an eps-interleaving.

    kind "local": between thickenings of one field at radii r1 and r2 over the
    same base complex; eps = max vertex gap |r1 - r2|.
    kind "ambient": between copies of the base complex carrying fields f and g
    (scalar or vector valued); eps = max vertex gap, sup norm.
    """

    kind: str
    eps: float
    forward: VertexMap
    backward: VertexMap
    base: SimplicialComplex
    context: dict


def _field_matrix(f):
    """(n, d) values of a scalar or vector field, or of an array-like."""
    return VectorField(getattr(f, "values", f)).values


def _local_direction(base, t, r_target):
    tau = clamp_projection(t, r_target[base])
    return VertexMap(base, t, tau, t - tau)


def build_local_interleaving(X, f, r1, r2):
    """Maps between the r1- and r2-thickenings of (X, f).

    phi sends a thickened vertex (x, t) to ((x, clamp(t, r2(x))), t - clamp).
    The residual never exceeds eps = max_x |r1(x) - r2(x)|.  Only the
    thickenings' vertex tables are built, never their triangulations.
    """
    f, r1, r2 = (as_scalar_field(x) for x in (f, r1, r2))
    base1, t1, field1 = thickened_vertices(X, f, r1.values)
    base2, t2, field2 = thickened_vertices(X, f, r2.values)
    eps = float(np.abs(r1.values - r2.values).max())
    fwd = _local_direction(base1, t1, r2.values)
    bwd = _local_direction(base2, t2, r1.values)
    for vm in (fwd, bwd):
        if np.abs(vm.residual).max() > eps + 1e-12:
            raise ValidationError("residual exceeded the interleaving bound")
    return InterleavingMapPair(
        kind="local",
        eps=eps,
        forward=fwd,
        backward=bwd,
        base=X,
        context={"f": f, "r1": r1, "r2": r2, "field1": field1, "field2": field2},
    )


def build_ambient_interleaving(X, f, g):
    """Maps between (X, f) and (X, g): x maps to (x, f(x) - g(x)).

    Works for scalar or vector-valued fields; eps is the sup-norm gap, which
    PL interpolation attains at a vertex.
    """
    fm = _field_matrix(f)
    gm = _field_matrix(g)
    if fm.shape != gm.shape or fm.shape[0] != X.n_vertices:
        raise ValidationError("fields must share shape (n_vertices, d)")
    diff = fm - gm
    eps = float(np.abs(diff).max())
    idx = np.arange(X.n_vertices, dtype=np.int64)
    zeros = np.zeros_like(diff)
    fwd = VertexMap(idx, zeros, zeros, diff)
    bwd = VertexMap(idx, zeros, zeros, -diff)
    return InterleavingMapPair(
        kind="ambient",
        eps=eps,
        forward=fwd,
        backward=bwd,
        base=X,
        context={"f": fm, "g": gm},
    )


# -- verification --------------------------------------------------------------


def _as_report(checked, max_violation, tol):
    return {
        "checked": int(checked),
        "max_violation": float(max_violation),
        "tolerance": float(tol),
        "passed": bool(max_violation <= tol),
    }


def verify_function_preservation(pair, tol=1e-12):
    """Check the thickened field value survives each map: target + residual = source."""
    if pair.kind == "local":
        f = pair.context["f"].values
        worst = 0.0
        n = 0
        for vm, source in (
            (pair.forward, pair.context["field1"]),
            (pair.backward, pair.context["field2"]),
        ):
            target = f[vm.base] + vm.target_offset
            worst = max(worst, float(np.abs(target + vm.residual - source).max()))
            n += len(source)
        return _as_report(n, worst, tol)
    fm, gm = pair.context["f"], pair.context["g"]
    worst = 0.0
    for vm, src, dst in ((pair.forward, fm, gm), (pair.backward, gm, fm)):
        worst = max(worst, float(np.abs(dst + vm.residual - src).max()))
    return _as_report(2 * fm.size, worst, tol)


def verify_commutativity(pair, samples=16, tol=1e-9):
    """Check both round trips land next to the identity inclusion.

    For local pairs the composed image ((x, tau), t - tau) is joined to the
    inclusion image ((x, t), 0) by the straight path
        s -> ((x, tau + s (t - tau)), (1 - s)(t - tau)),
    which must stay inside the source thickening, keep its leftover coordinate
    within 2 eps, and carry a constant field value.  For ambient pairs the
    round-trip offsets cancel and the images must coincide outright.
    """
    s_grid = np.linspace(0.0, 1.0, samples)[:, None]
    if pair.kind == "local":
        f = pair.context["f"].values
        r_self = (pair.context["r1"].values, pair.context["r2"].values)
        drift = 0.0
        excess = 0.0
        n = 0
        for which, vm in ((0, pair.forward), (1, pair.backward)):
            r_src = r_self[which][vm.base]
            # the return map acts by clamping against the source radius; the
            # intermediate offset is already inside it, so it passes through
            back = clamp_projection(vm.target_offset, r_src)
            excess = max(excess, float(np.abs(back - vm.target_offset).max()))
            off1 = vm.target_offset[None, :] + s_grid * vm.residual[None, :]
            off2 = (1.0 - s_grid) * vm.residual[None, :]
            excess = max(excess, float((np.abs(off1) - r_src[None, :]).max()))
            excess = max(excess, float((np.abs(off2) - 2.0 * pair.eps).max()))
            value = f[vm.base][None, :] + off1 + off2
            source_value = f[vm.base] + vm.source_offset
            drift = max(drift, float(np.abs(value - source_value[None, :]).max()))
            n += off1.size
        worst = max(drift, excess)
        report = _as_report(n, worst, tol)
        report["max_field_drift"] = float(drift)
        report["max_region_excess"] = float(excess)
        return report
    # ambient: both compositions send x to (x, 0); offsets cancel exactly
    gap = 0.0
    for vm_out, vm_back in (
        (pair.forward, pair.backward),
        (pair.backward, pair.forward),
    ):
        gap = max(gap, float(np.abs(vm_out.residual + vm_back.residual).max()))
    report = _as_report(2 * pair.forward.residual.size, gap, tol)
    report["exact"] = bool(gap == 0.0)
    return report
