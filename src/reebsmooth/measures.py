"""Empirical measures and the derived distance functions.

Distance to a measure, kernel distance (between measures and point-to-measure),
exact small-support 2-Wasserstein, continuous piecewise-linear surrogate CDFs,
and the Kolmogorov-Smirnov distance.  Everything here treats measures as
weighted point sets with masses summing to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import ScalarField
from .errors import GuardViolation, ValidationError

W2_MAX_SUPPORT = 64
MASS_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted points in R^k with masses summing to 1.

    Zero-mass points are legal and retained (they carry no measure but stay
    in the support list).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if len(pts) == 0:
            raise ValidationError("empirical measure needs at least one point")
        if len(pts) != len(w):
            raise ValidationError("points and weights length mismatch")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValidationError("measure data must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValidationError("weights must sum to 1 (use from_raw to normalize)")

    @classmethod
    def from_raw(cls, points, weights):
        """Normalize raw nonnegative weights to total mass 1."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise ValidationError("total mass must be positive")
        return cls(pts, w / total)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def support_size(self):
        return len(self.points)


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth of the Gaussian kernel."""

    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValidationError("kernel bandwidth must be positive")

    def gram(self, a, b):
        """K(a_i, b_j) matrix for point arrays a (n,k), b (m,k)."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * self.bandwidth**2))


# -- distance to a measure ----------------------------------------------------


def _dtm_many(mu, m, query):
    """DTM at each row of `query`; closed form for empirical measures.

    The quantile radius is a step function of the mass variable s with jumps
    at cumulative weights of support points sorted by distance, so the mass
    integral is a finite sum of squared distances times interval overlaps.
    """
    if not (0.0 < m <= 1.0):
        raise ValidationError("mass parameter m must lie in (0, 1]")
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    if q.shape[1] != mu.dim:
        raise ValidationError("query dimension does not match measure")
    d = np.sqrt(((q[:, None, :] - mu.points[None, :, :]) ** 2).sum(axis=2))
    order = np.argsort(d, axis=1, kind="stable")
    d_sorted = np.take_along_axis(d, order, axis=1)
    w_sorted = mu.weights[order]
    cum = np.cumsum(w_sorted, axis=1)
    cum[:, -1] = np.maximum(cum[:, -1], m)  # guard float undershoot of total mass
    lo = np.concatenate([np.zeros((len(q), 1)), cum[:, :-1]], axis=1)
    overlap = np.clip(np.minimum(cum, m) - lo, 0.0, None)
    return np.sqrt((d_sorted**2 * overlap).sum(axis=1) / m)


def dtm(mu, m, x):
    """Distance to the measure mu with mass parameter m, at the point x.

    Serves the dtm stability statement (acceptance criterion C05).
    """
    return float(_dtm_many(mu, m, np.atleast_1d(np.asarray(x, dtype=np.float64)))[0])


# -- kernel distances ----------------------------------------------------------


def _kappa(K, mu, nu):
    g = K.gram(mu.points, nu.points)
    return float(mu.weights @ g @ nu.weights)


def _sqrt_clamped(radicand):
    """Square root of kernel radicands; rounding may leave one just below 0."""
    radicand = np.asarray(radicand, dtype=np.float64)
    if np.any(radicand < -1e-12):
        raise GuardViolation(f"kernel radicand {radicand.min()} below tolerance")
    return np.sqrt(np.clip(radicand, 0.0, None))


def _kdist_many(mu, K, query):
    """Kernel distance between mu and the unit mass at each row of `query`."""
    cross = K.gram(query, mu.points) @ mu.weights
    return _sqrt_clamped(_kappa(K, mu, mu) + 1.0 - 2.0 * cross)


def kdist_to_measure(mu, K, x):
    """Kernel distance between mu and the unit mass at x.

    Serves the kernel-distance stability statement (acceptance criterion C05).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if len(x) != mu.dim:
        raise ValidationError("query dimension does not match measure")
    return float(_kdist_many(mu, K, x[None, :])[0])


def kernel_distance(mu, nu, K):
    """Kernel distance between two measures (a metric for Gaussian kernels)."""
    if mu.dim != nu.dim:
        raise ValidationError("measure dimensions differ")
    return float(
        _sqrt_clamped(_kappa(K, mu, mu) + _kappa(K, nu, nu) - 2.0 * _kappa(K, mu, nu))
    )


# -- exact 2-Wasserstein -------------------------------------------------------


def wasserstein2(mu, nu):
    """Exact 2-Wasserstein distance for small supports via the transport LP.

    The solver returns a primal feasible coupling, so any residual error
    overestimates the distance.  W2 enters the stability upper bound, so an
    overestimate makes a trial easier to pass, not harder.
    """
    if mu.dim != nu.dim:
        raise ValidationError("measure dimensions differ")
    n, k = mu.support_size, nu.support_size
    if n > W2_MAX_SUPPORT or k > W2_MAX_SUPPORT:
        raise GuardViolation(
            f"wasserstein2 limited to supports of {W2_MAX_SUPPORT}; subsample first"
        )
    cost = ((mu.points[:, None, :] - nu.points[None, :, :]) ** 2).sum(axis=2)
    # marginal constraints; drop one redundant row to keep the system full rank
    # (the plan is row-major: variable i * k + j moves mass from mu_i to nu_j)
    a_eq = np.concatenate(
        [np.kron(np.eye(n), np.ones((1, k))), np.kron(np.ones((1, n)), np.eye(k))[:-1]]
    )
    rhs = np.concatenate([mu.weights, nu.weights[:-1]])
    # imported at its only use: scipy.optimize adds about 0.14 s to importing this module
    from scipy.optimize import linprog

    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise GuardViolation(f"transport LP failed: {res.message}")
    return float(np.sqrt(max(res.fun, 0.0)))


# -- continuous CDFs -----------------------------------------------------------


@dataclass(frozen=True)
class ContinuousCDF:
    """Piecewise-linear CDF: strictly increasing knots, values from 0 to 1."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.knots, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "knots", x)
        object.__setattr__(self, "values", v)
        if len(x) < 2 or len(x) != len(v):
            raise ValidationError("CDF needs matching knots/values, at least 2")
        if np.any(np.diff(x) <= 0):
            raise ValidationError("CDF knots must strictly increase")
        if np.any(np.diff(v) < 0) or v[0] != 0.0 or v[-1] != 1.0:
            raise ValidationError("CDF values must rise from 0 to 1")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=np.float64), self.knots, self.values)

    def lipschitz_bound(self):
        """Exact Lipschitz constant: max slope over segments (flat outside)."""
        slopes = np.diff(self.values) / np.diff(self.knots)
        return float(slopes.max())

    def strictly_increasing_on(self, lo, hi):
        """True if the CDF is strictly increasing on the whole interval [lo, hi]."""
        if lo < self.knots[0] or hi > self.knots[-1]:
            return False
        slopes = np.diff(self.values) / np.diff(self.knots)
        overlap = (self.knots[:-1] < hi) & (self.knots[1:] > lo)
        return bool(np.all(slopes[overlap] > 0))


def cdf_of_measure(mu):
    """Continuous surrogate CDF of a 1-d empirical measure.

    Duplicate points merge.  Knots sit at the distinct sorted values with the
    cumulative mass, plus one leading knot half a first-gap below the minimum
    where the CDF is 0, so the full rise from 0 to 1 happens on a compact
    interval and clamping matches a genuine CDF at infinity.
    """
    if mu.dim != 1:
        raise ValidationError("CDFs need 1-d measures")
    # weights sum to 1 only within MASS_TOL; renormalizing fixes the values' last bits
    w = mu.weights / float(mu.weights.sum())
    xs, inverse = np.unique(mu.points[:, 0], return_inverse=True)
    if len(xs) < 2:
        raise ValidationError("a CDF needs at least 2 distinct values")
    ws = np.zeros(len(xs))
    np.add.at(ws, inverse, w)
    cum = np.cumsum(ws)
    cum[-1] = 1.0  # masses are normalized; pin the top against float drift
    lead = xs[0] - (xs[1] - xs[0]) / 2.0
    # half of a one-ulp subnormal gap rounds to 0; the knots must still rise
    lead = min(lead, np.nextafter(xs[0], -np.inf))
    knots = np.concatenate([[lead], xs])
    values = np.concatenate([[0.0], cum])
    return ContinuousCDF(knots, values)


def ks_distance(F, G):
    """Exact sup |F - G|: attained at a knot of either PL function."""
    grid = np.union1d(F.knots, G.knots)
    return float(np.abs(F(grid) - G(grid)).max())


# -- fields over complexes ------------------------------------------------------


def dtm_field(X, mu, m):
    """DTM evaluated at every vertex of X (unfloored; see SmoothingFactor)."""
    if mu.dim != X.coord_dim:
        raise ValidationError("measure does not live in the complex's ambient space")
    return ScalarField(_dtm_many(mu, m, X.coords))


def kdist_field(X, mu, K):
    """Kernel distance to mu at every vertex of X (unfloored; see SmoothingFactor)."""
    if mu.dim != X.coord_dim:
        raise ValidationError("measure does not live in the complex's ambient space")
    return ScalarField(_kdist_many(mu, K, X.coords))
