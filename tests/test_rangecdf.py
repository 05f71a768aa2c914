"""Range integration: CDF composition, invariance, knot splitting."""

import numpy as np
import pytest

from reebsmooth.complexes import ScalarField, SimplicialComplex
from reebsmooth.measures import ContinuousCDF, EmpiricalMeasure, cdf_of_measure, ks_distance
from reebsmooth.meshes import circle_complex, random_complex, random_field, torus_mesh
from reebsmooth.rangecdf import check_monotone_invariance, compose_cdf, range_integrated_reeb
from reebsmooth.reeb import is_isomorphic, reeb_graph


def _uniform_1d(points):
    pts = np.asarray(points, dtype=np.float64)[:, None]
    return EmpiricalMeasure.from_raw(pts, np.ones(len(pts)))


def test_identity_cdf_leaves_field_unchanged():
    F = ContinuousCDF(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    X, f = circle_complex(16)
    f01 = ScalarField((f.values + 1.0) / 2.0)  # range into [0, 1]
    composed = compose_cdf(f01, F)
    assert np.allclose(composed.values, f01.values, atol=1e-15)


def test_constant_field_maps_to_cdf_value():
    F = cdf_of_measure(_uniform_1d([0.0, 1.0]))
    X, _ = circle_complex(8)
    f = ScalarField(np.full(X.n_vertices, 0.5))
    composed = compose_cdf(f, F)
    assert np.allclose(composed.values, 0.75, atol=1e-12)  # F(0.5) = 0.5 + 0.25


def test_composed_range_in_unit_interval():
    rng = np.random.default_rng(6)
    X, f = torus_mesh(8, 8)
    for _ in range(5):
        mu = _uniform_1d(rng.uniform(-4, 4, size=6))
        graph, cdf = range_integrated_reeb(X, f, mu)
        assert float(graph.node_values.min()) >= 0.0
        assert float(graph.node_values.max()) <= 1.0


def test_measure_below_field_range_collapses():
    # all mass below min f: composed field is constantly 1, graph is one node
    X, f = circle_complex(16)
    mu = _uniform_1d([-10.0, -9.0])
    graph, cdf = range_integrated_reeb(X, f, mu)
    assert graph.n_nodes == 1
    assert float(graph.node_values[0]) == pytest.approx(1.0, abs=1e-12)


def test_monotone_invariance_on_torus():
    # strictly increasing surrogate CDF spanning the field range
    X, f = torus_mesh(12, 12)
    rng = np.random.default_rng(8)
    for _ in range(5):
        pts = np.sort(rng.uniform(-3.6, 3.6, size=7))
        pts[0], pts[-1] = -3.6, 3.6  # force span of [min f, max f]
        mu = _uniform_1d(pts)
        rep = check_monotone_invariance(X, f, cdf_of_measure(mu))
        assert rep["applicable"]
        assert rep["passed"]


def test_monotone_invariance_flags_flat_cdf_as_inapplicable():
    X, f = circle_complex(12)
    mu = _uniform_1d([-0.25, 0.25])  # CDF flat outside [-0.25, 0.25]
    rep = check_monotone_invariance(X, f, cdf_of_measure(mu))
    assert not rep["applicable"]
    assert rep["reason"]


def test_affine_cdf_transforms_node_values_affinely():
    X, f = torus_mesh(8, 8)
    lo, hi = float(f.values.min()) - 0.5, float(f.values.max()) + 0.5
    F = ContinuousCDF(np.array([lo, hi]), np.array([0.0, 1.0]))
    base = reeb_graph(X, f)
    graph = reeb_graph(X, compose_cdf(f, F))
    expected = (base.node_values - lo) / (hi - lo)
    assert np.allclose(np.sort(graph.node_values), np.sort(expected), atol=1e-12)
    assert is_isomorphic(
        graph, type(base)(expected, base.node_reps, base.edges), value_tol=1e-9
    )


def _split_at_knots(X, f, knots):
    """The 1-complex with every edge split where f crosses one of `knots`."""
    vals = f.values
    ids, coords = list(X.vertex_ids), list(X.coords)
    new_vals = list(vals)
    next_id = int(X.vertex_ids.max()) + 1
    edges = []
    for u, v in X.simplices.get(1, ()):
        a, b = float(vals[u]), float(vals[v])
        cuts = sorted((k for k in knots if min(a, b) < k < max(a, b)), key=lambda k: abs(k - a))
        chain = [int(X.vertex_ids[u])]
        for k in cuts:
            s = (k - a) / (b - a)
            ids.append(next_id)
            coords.append(X.coords[u] + s * (X.coords[v] - X.coords[u]))
            new_vals.append(k)
            chain.append(next_id)
            next_id += 1
        chain.append(int(X.vertex_ids[v]))
        edges.extend(zip(chain[:-1], chain[1:]))
    return SimplicialComplex.build(ids, coords, {1: edges}), ScalarField(np.array(new_vals))


def test_splitting_edges_at_cdf_knots_never_changes_the_graph():
    # the Reeb graph depends only on the vertex-value preorder, which a
    # monotone CDF keeps up to ties, so knot vertices inside edges only add
    # regular points: even flat CDF segments need no subdivision
    rng = np.random.default_rng(31)
    for trial in range(120):
        X = random_complex(rng, n_vertices=10, n_edges=14, n_triangles=0)
        f = random_field(rng, X, quantize=4 if trial % 3 == 0 else None)
        knots = np.unique(np.round(rng.uniform(-1.2, 1.2, size=6), 2))
        if trial % 2 == 0:
            # knots on the field's value grid, some hitting vertex values
            knots = np.unique(np.round(knots * 4) / 4)
        values = np.sort(np.round(rng.uniform(0, 1, size=len(knots)) * 3) / 3)
        values[0], values[-1] = 0.0, 1.0  # rounding leaves flat segments
        F = ContinuousCDF(knots, values)
        X2, f2 = _split_at_knots(X, f, F.knots[1:-1])
        g_plain = reeb_graph(X, compose_cdf(f, F))
        g_split = reeb_graph(X2, compose_cdf(f2, F))
        assert is_isomorphic(g_plain, g_split, value_tol=0.0)


def test_ks_feeds_composed_field_distance():
    # |F_mu(g(v)) - F_nu(g(v))| <= d_KS(mu, nu) at every vertex
    rng = np.random.default_rng(10)
    X, g = torus_mesh(8, 8)
    for _ in range(10):
        mu = _uniform_1d(rng.uniform(-4, 4, size=5))
        nu = _uniform_1d(rng.uniform(-4, 4, size=6))
        Fm, Fn = cdf_of_measure(mu), cdf_of_measure(nu)
        gap = float(np.max(np.abs(Fm(g.values) - Fn(g.values))))
        assert gap <= ks_distance(Fm, Fn) + 1e-12


def test_lipschitz_bound_controls_composition():
    rng = np.random.default_rng(14)
    X, f = torus_mesh(8, 8)
    for _ in range(10):
        mu = _uniform_1d(rng.uniform(-4, 4, size=5))
        F = cdf_of_measure(mu)
        g = ScalarField(f.values + rng.uniform(-0.2, 0.2, X.n_vertices))
        lhs = float(np.max(np.abs(F(f.values) - F(g.values))))
        rhs = F.lipschitz_bound() * float(np.max(np.abs(f.values - g.values)))
        assert lhs <= rhs + 1e-12
