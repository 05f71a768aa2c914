"""Measure-theoretic layer: dtm, kernel distance, transport, CDFs.

Every closed-form value here is checked against an independent route first
(grid integration, hand-expanded sums, sorted 1-d couplings, dense grids),
then frozen as a literal.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.measures import (
    ContinuousCDF,
    EmpiricalMeasure,
    KernelSpec,
    cdf_of_measure,
    dtm,
    dtm_field,
    kdist_field,
    kdist_to_measure,
    kernel_distance,
    ks_distance,
    wasserstein2,
    _sqrt_clamped,
)
from reebsmooth.meshes import circle_complex


def uniform_measure(points):
    pts = np.asarray(points, dtype=np.float64)
    return EmpiricalMeasure.from_raw(pts, np.ones(len(pts)))


def dtm_grid_oracle(mu, m, x, n_grid=200_000):
    # numerically integrate delta_{mu,s}(x)^2 over s in (0, m]
    d = np.linalg.norm(mu.points - np.atleast_1d(x)[None, :], axis=1)
    order = np.argsort(d, kind="stable")
    d = d[order]
    cum = np.cumsum(mu.weights[order])
    s = (np.arange(n_grid) + 0.5) * (m / n_grid)
    # delta_{mu,s} = smallest distance with cumulative mass > s
    idx = np.searchsorted(cum, s, side="right")
    idx = np.minimum(idx, len(d) - 1)
    return float(np.sqrt(np.mean(d[idx] ** 2)))


def test_dtm_uniform_012_against_grid_integration():
    mu = uniform_measure([[0.0], [1.0], [2.0]])
    got = dtm(mu, 1.0 / 3.0, [0.5])
    assert got == pytest.approx(dtm_grid_oracle(mu, 1.0 / 3.0, [0.5]), abs=1e-6)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_dtm_full_mass_closed_form():
    mu = uniform_measure([[0.0], [1.0], [2.0]])
    got = dtm(mu, 1.0, [0.0])
    assert got == pytest.approx(dtm_grid_oracle(mu, 1.0, [0.0]), abs=1e-5)
    assert got == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-12)


def test_dtm_matches_grid_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pts = rng.normal(size=(7, 2))
        w = rng.dirichlet(np.ones(7))
        mu = EmpiricalMeasure(pts, w)
        x = rng.normal(size=2)
        m = float(rng.uniform(0.1, 1.0))
        assert dtm(mu, m, x) == pytest.approx(dtm_grid_oracle(mu, m, x), abs=2e-5)


def test_dtm_rejects_bad_mass():
    mu = uniform_measure([[0.0], [1.0]])
    for m in (0.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            dtm(mu, m, [0.0])


def test_kdist_dirac_closed_form():
    # D(delta_y, delta_x) at |x-y| = sigma*sqrt(2): kappa terms hand-expanded
    sigma = 0.7
    y = np.array([[0.0, 0.0]])
    x = np.array([sigma * np.sqrt(2.0), 0.0])
    mu = EmpiricalMeasure(y, np.array([1.0]))
    got = kdist_to_measure(mu, KernelSpec(sigma), x)
    assert got == pytest.approx(np.sqrt(2.0 * (1.0 - np.exp(-1.0))), abs=1e-12)


def test_kdist_two_point_hand_sum():
    # mu uniform on {-1,+1} in R, sigma=1: 4-term kappa sum written out
    sigma = 1.0
    mu = uniform_measure([[-1.0], [1.0]])
    x = np.array([0.0])
    k = lambda a, b: np.exp(-((a - b) ** 2) / (2.0 * sigma**2))
    kappa_mm = 0.25 * (k(-1, -1) + k(-1, 1) + k(1, -1) + k(1, 1))
    kappa_xx = 1.0
    cross = 0.5 * (k(0, -1) + k(0, 1))
    expected = np.sqrt(kappa_mm + kappa_xx - 2.0 * cross)
    assert kdist_to_measure(mu, KernelSpec(sigma), x) == pytest.approx(expected, abs=1e-12)


def test_kdist_field_is_kdist_to_measure_at_each_vertex():
    rng = np.random.default_rng(3)
    X, _ = circle_complex(12)
    for sigma in (0.05, 0.5, 3.0):
        mu = EmpiricalMeasure.from_raw(rng.normal(size=(7, 2)), rng.uniform(0.1, 1.0, 7))
        K = KernelSpec(sigma)
        at_vertices = [kdist_to_measure(mu, K, x) for x in X.coords]
        # one formula; a matrix-vector product may sum in another order
        np.testing.assert_allclose(kdist_field(X, mu, K).values, at_vertices, rtol=1e-14, atol=0)


def test_kernel_radicand_guard():
    # rounding may leave a radicand a hair below 0; further below is a fault
    assert _sqrt_clamped(-1e-13) == 0.0
    assert _sqrt_clamped(np.array([4.0, -1e-13])).tolist() == [2.0, 0.0]
    for bad in (-1e-11, np.array([1.0, -1e-11])):
        with pytest.raises(GuardViolation):
            _sqrt_clamped(bad)


def test_kernel_distance_dirac_pair_closed_form():
    for t in (0.3, 1.0, 2.5):
        mu = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
        nu = EmpiricalMeasure(np.array([[t]]), np.array([1.0]))
        got = kernel_distance(mu, nu, KernelSpec(1.0))
        assert got == pytest.approx(np.sqrt(2.0 * (1.0 - np.exp(-(t**2) / 2.0))), abs=1e-12)


def test_kernel_distance_metric_axioms():
    rng = np.random.default_rng(7)
    spec = KernelSpec(0.8)
    for _ in range(100):
        ms = [
            EmpiricalMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
            for _ in range(3)
        ]
        d01 = kernel_distance(ms[0], ms[1], spec)
        d10 = kernel_distance(ms[1], ms[0], spec)
        d02 = kernel_distance(ms[0], ms[2], spec)
        d12 = kernel_distance(ms[1], ms[2], spec)
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d01 >= 0.0
        assert d02 <= d01 + d12 + 1e-9
        assert kernel_distance(ms[0], ms[0], spec) <= 1e-9


def w2_sorted_oracle(a_pts, a_w, b_pts, b_w):
    """1-d transport cost via the monotone coupling on merged breakpoints."""
    ia = np.argsort(a_pts, kind="stable")
    ib = np.argsort(b_pts, kind="stable")
    ap, aw = a_pts[ia], a_w[ia]
    bp, bw = b_pts[ib], b_w[ib]
    ca = np.concatenate([[0.0], np.cumsum(aw)])
    cb = np.concatenate([[0.0], np.cumsum(bw)])
    cuts = np.unique(np.concatenate([ca, cb]))
    cuts = np.clip(cuts, 0.0, 1.0)
    cost = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mass = hi - lo
        if mass <= 0:
            continue
        mid = 0.5 * (lo + hi)
        xa = ap[min(np.searchsorted(ca, mid, side="right") - 1, len(ap) - 1)]
        xb = bp[min(np.searchsorted(cb, mid, side="right") - 1, len(bp) - 1)]
        cost += mass * (xa - xb) ** 2
    return float(np.sqrt(cost))


def test_wasserstein2_unit_shift():
    mu = uniform_measure([[0.0], [2.0]])
    nu = uniform_measure([[1.0], [3.0]])
    assert wasserstein2(mu, nu) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein2_identity_is_zero():
    rng = np.random.default_rng(2)
    mu = EmpiricalMeasure(rng.normal(size=(6, 3)), rng.dirichlet(np.ones(6)))
    assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-9)


def test_wasserstein2_matches_1d_quantile_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        na, nb = rng.integers(2, 9, size=2)
        ap = rng.normal(size=na)
        bp = rng.normal(size=nb)
        aw = rng.dirichlet(np.ones(na))
        bw = rng.dirichlet(np.ones(nb))
        mu = EmpiricalMeasure(ap[:, None], aw)
        nu = EmpiricalMeasure(bp[:, None], bw)
        assert wasserstein2(mu, nu) == pytest.approx(
            w2_sorted_oracle(ap, aw, bp, bw), abs=1e-7
        )


def test_wasserstein2_matches_the_loop_built_lp():
    # the marginal rows written out one by one, as an independent construction
    # of the same LP: the solver sees the same problem, so values are equal
    rng = np.random.default_rng(4)
    for trial in range(30):
        n, k = (1, 1) if trial == 0 else rng.integers(1, 13, size=2)
        mu = EmpiricalMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = EmpiricalMeasure(rng.normal(size=(k, 2)), rng.dirichlet(np.ones(k)))
        a_eq = np.zeros((n + k - 1, n * k))
        for i in range(n):
            a_eq[i, i * k : (i + 1) * k] = 1.0
        for j in range(k - 1):
            a_eq[n + j, j::k] = 1.0
        rhs = np.concatenate([mu.weights, nu.weights[:-1]])
        cost = ((mu.points[:, None, :] - nu.points[None, :, :]) ** 2).sum(axis=2)
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=rhs, bounds=(0, None), method="highs")
        assert wasserstein2(mu, nu) == float(np.sqrt(max(res.fun, 0.0)))


def test_wasserstein2_support_guard():
    pts = np.arange(65, dtype=np.float64)[:, None]
    mu = EmpiricalMeasure.from_raw(pts, np.ones(65))
    with pytest.raises(GuardViolation):
        wasserstein2(mu, mu)


def test_cdf_of_measure_uniform_01():
    mu = uniform_measure([[0.0], [1.0]])
    F = cdf_of_measure(mu)
    assert F(0.0) == pytest.approx(0.5, abs=1e-12)
    assert F(1.0) == pytest.approx(1.0, abs=1e-12)
    # linear in between
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(F(xs), 0.5 + 0.5 * xs, atol=1e-12)


def test_cdf_of_measure_uniform_012():
    F = cdf_of_measure(uniform_measure([[0.0], [1.0], [2.0]]))
    assert F(1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_cdf_of_measure_merges_duplicates():
    mu = EmpiricalMeasure.from_raw(
        np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 1.0, 2.0])
    )
    F = cdf_of_measure(mu)
    assert F(0.0) == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(F.knots) > 0)


def test_ks_distance_dense_grid_oracle():
    F = cdf_of_measure(uniform_measure([[0.0], [1.0]]))
    G = cdf_of_measure(uniform_measure([[0.0], [3.0]]))
    # sup of a PL difference sits at a breakpoint, so the grid must carry them
    grid = np.union1d(np.linspace(-2.0, 5.0, 1_000_001), np.union1d(F.knots, G.knots))
    dense = float(np.max(np.abs(F(grid) - G(grid))))
    got = ks_distance(F, G)
    assert got == pytest.approx(dense, abs=1e-9)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ks_distance(F, F) == 0.0


def test_cdf_lipschitz_is_max_segment_slope():
    F = ContinuousCDF(np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.75, 1.0]))
    assert F.lipschitz_bound() == pytest.approx(0.75, abs=1e-15)


def test_cdf_rejects_malformed_knots():
    with pytest.raises(ValidationError):
        ContinuousCDF(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        ContinuousCDF(np.array([0.0, 1.0]), np.array([0.3, 0.1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=12, unique=True),
    st.floats(-80.0, 80.0),
    st.floats(-80.0, 80.0),
)
@example(points=[0.0, 5e-324], a=0.0, b=0.0)  # half the gap rounds to 0
def test_cdf_properties_under_random_supports(points, a, b):
    mu = uniform_measure(np.asarray(points)[:, None])
    F = cdf_of_measure(mu)
    fa, fb = F(a), F(b)
    assert 0.0 <= fa <= 1.0
    if a <= b:
        assert fa <= fb + 1e-15
    assert F(F.knots[-1]) == pytest.approx(1.0, abs=1e-12)


def test_strictly_increasing_detection():
    F = cdf_of_measure(uniform_measure([[0.0], [1.0], [2.0]]))
    assert F.strictly_increasing_on(0.0, 2.0)
    assert not F.strictly_increasing_on(-1.0, 2.0)  # flat left tail outside knots
    assert not F.strictly_increasing_on(0.0, 5.0)


def test_dtm_field_small_mass_near_support():
    # mass concentrated at each vertex: tiny m sees only the nearest point
    X, _ = circle_complex(16)
    mu = EmpiricalMeasure.from_raw(X.coords, np.ones(X.n_vertices))
    fld = dtm_field(X, mu, 1.0 / X.n_vertices)
    assert float(np.max(fld.values)) <= 1e-12


def test_kdist_field_far_dirac_limit():
    # a Dirac 10 sigma away: D -> sqrt(2) within 1e-6
    X, _ = circle_complex(8)
    sigma = 0.05
    mu = EmpiricalMeasure(np.array([[100.0, 0.0]]), np.array([1.0]))
    fld = kdist_field(X, mu, KernelSpec(sigma))
    assert np.allclose(fld.values, np.sqrt(2.0), atol=1e-6)


def test_measure_weight_normalization():
    pts = np.zeros((3, 1))
    mu = EmpiricalMeasure.from_raw(pts, np.array([2.0, 3.0, 2.3]))
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        EmpiricalMeasure.from_raw(pts, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        EmpiricalMeasure.from_raw(pts, np.array([1.0, -0.5, 1.0]))


def test_dtm_stability_theorem_form():
    # sup |dtm_mu - dtm_nu| <= W2(mu, nu) / sqrt(m) on a 200-point grid
    rng = np.random.default_rng(11)
    for _ in range(25):
        n1, n2 = rng.integers(2, 33, size=2)
        mu = EmpiricalMeasure(rng.normal(size=(n1, 2)), rng.dirichlet(np.ones(n1)))
        nu = EmpiricalMeasure(rng.normal(size=(n2, 2)), rng.dirichlet(np.ones(n2)))
        m = float(rng.uniform(0.05, 1.0))
        grid = rng.uniform(-3, 3, size=(200, 2))
        gap = float(np.max(np.abs(dtm(mu, m, grid) - dtm(nu, m, grid))))
        assert gap <= wasserstein2(mu, nu) / np.sqrt(m) + 1e-9


def test_kdist_stability_theorem_form():
    rng = np.random.default_rng(12)
    spec = KernelSpec(0.6)
    for _ in range(25):
        n1, n2 = rng.integers(2, 33, size=2)
        mu = EmpiricalMeasure(rng.normal(size=(n1, 2)), rng.dirichlet(np.ones(n1)))
        nu = EmpiricalMeasure(rng.normal(size=(n2, 2)), rng.dirichlet(np.ones(n2)))
        grid = rng.uniform(-3, 3, size=(200, 2))
        gm = np.array([kdist_to_measure(mu, spec, x) for x in grid])
        gn = np.array([kdist_to_measure(nu, spec, x) for x in grid])
        gap = float(np.max(np.abs(gm - gn)))
        assert gap <= kernel_distance(mu, nu, spec) + 1e-9
