"""Reeb extraction: frozen small cases, oracle agreement, isomorphism."""

import numpy as np
import pytest

from reebsmooth.complexes import ScalarField, SimplicialComplex
from reebsmooth.errors import GuardViolation
from reebsmooth.meshes import (
    circle_complex,
    random_complex,
    random_field,
    three_loop_rig,
    torus_mesh,
)
from reebsmooth.reeb import (
    ReebGraph,
    is_isomorphic,
    level_components,
    realize_as_complex,
    reeb_graph,
    slab_oracle,
)


def test_circle_two_nodes_two_parallel_edges():
    X, f = circle_complex(24)
    g = reeb_graph(X, f)
    assert g.n_nodes == 2
    assert g.node_values.tolist() == [-1.0, 1.0]
    assert g.edges.tolist() == [[0, 1], [0, 1]]
    assert g.betti1() == 1


def test_torus_height_field_degrees_and_betti():
    X, f = torus_mesh(12, 12)
    g = reeb_graph(X, f)
    assert g.n_nodes == 4
    deg = np.zeros(g.n_nodes, dtype=int)
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert sorted(deg.tolist()) == [1, 1, 3, 3]
    assert g.betti1() == 1
    assert is_isomorphic(g, slab_oracle(X, f))


def test_three_loop_rig_unsmoothed_betti():
    X, f = three_loop_rig()
    g = reeb_graph(X, f)
    assert g.betti1() == 3
    assert is_isomorphic(g, slab_oracle(X, f))


def test_constant_field_single_node():
    X, _ = circle_complex(10)
    g = reeb_graph(X, ScalarField(np.zeros(X.n_vertices)))
    assert g.n_nodes == 1
    assert g.edges.shape == (0, 2)


def test_plateau_collapses_and_regular_node_splices():
    # path a-b-c-d with a flat middle: the plateau {b, c} merges into one
    # regular node, which then splices out of the canonical graph
    X = SimplicialComplex.build(
        [(i, (float(i),)) for i in range(4)], [(0, 1), (1, 2), (2, 3)]
    )
    f = ScalarField(np.array([0.0, 1.0, 1.0, 2.0]))
    g = reeb_graph(X, f)
    assert g.node_values.tolist() == [0.0, 2.0]
    assert g.edges.tolist() == [[0, 1]]


def test_plateau_branch_point_is_one_node():
    # Y-shape with a two-vertex plateau at the branch value: must be ONE node
    X = SimplicialComplex.build(
        [(i, (float(i),)) for i in range(5)],
        [(0, 1), (1, 2), (2, 3), (2, 4)],
    )
    f = ScalarField(np.array([0.0, 1.0, 1.0, 2.0, 2.0]))
    g = reeb_graph(X, f)
    assert g.n_nodes == 4
    assert sorted(g.node_values.tolist()) == [0.0, 1.0, 2.0, 2.0]
    assert int(np.count_nonzero(g.node_values == 1.0)) == 1


def test_disconnected_input_gives_disconnected_graph():
    X = SimplicialComplex.build(
        [(0, (0.0,)), (1, (1.0,)), (2, (5.0,)), (3, (6.0,))], [(0, 1), (2, 3)]
    )
    f = ScalarField(np.array([0.0, 1.0, 5.0, 6.0]))
    g = reeb_graph(X, f)
    assert g.n_nodes == 4
    assert len(g.edges) == 2


def test_edge_monotonicity_and_no_self_loops():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = random_complex(rng)
        f = random_field(rng, X)
        g = reeb_graph(X, f)
        if len(g.edges):
            lo = g.node_values[g.edges[:, 0]]
            hi = g.node_values[g.edges[:, 1]]
            assert np.all(lo < hi)
            assert np.all(g.edges[:, 0] != g.edges[:, 1])
        assert set(g.node_values.tolist()) <= set(f.values.tolist())


def _assert_same_graph(g, oracle):
    # bit for bit on values and edges; node_reps differ by witness convention
    assert np.array_equal(g.node_values, oracle.node_values)
    assert np.array_equal(g.edges, oracle.edges)


def test_oracle_agreement_random_fields():
    rng = np.random.default_rng(17)
    X1, _ = circle_complex(20)
    X2, _ = torus_mesh(8, 8)
    for X in (X1, X2):
        for _ in range(10):
            f = random_field(rng, X)
            _assert_same_graph(reeb_graph(X, f), slab_oracle(X, f))


def test_oracle_agreement_with_forced_ties():
    # quantized fields produce plateaus and equal-value saddles
    rng = np.random.default_rng(23)
    for _ in range(15):
        X = random_complex(rng)
        f = random_field(rng, X, quantize=4)
        _assert_same_graph(reeb_graph(X, f), slab_oracle(X, f))
    for trial in range(15):
        X = random_complex(rng, 14, 24, 8)
        f = random_field(rng, X, quantize=0.5 if trial % 3 == 0 else None)
        _assert_same_graph(reeb_graph(X, f), slab_oracle(X, f))


def test_is_isomorphic_positive_and_negative():
    X, f = torus_mesh(10, 10)
    g = reeb_graph(X, f)
    assert is_isomorphic(g, g)
    shifted = ReebGraph(g.node_values + 2e-9, g.node_reps, g.edges)
    assert not is_isomorphic(g, shifted, value_tol=1e-9)
    ok = ReebGraph(g.node_values + 0.5e-9, g.node_reps, g.edges)
    assert is_isomorphic(g, ok, value_tol=1e-9)


def test_is_isomorphic_rejects_wrong_multiplicity():
    # single edge vs doubled edge between the same values
    a = ReebGraph(
        np.array([0.0, 1.0]), np.array([0, 1]), np.array([[0, 1]], dtype=np.int64)
    )
    b = ReebGraph(
        np.array([0.0, 1.0]), np.array([0, 1]), np.array([[0, 1], [0, 1]], dtype=np.int64)
    )
    assert not is_isomorphic(a, b)


def test_is_isomorphic_size_guard():
    vals = np.arange(65, dtype=np.float64)
    reps = np.arange(65)
    edges = np.stack([np.arange(64), np.arange(1, 65)], axis=1).astype(np.int64)
    g = ReebGraph(vals, reps, edges)
    with pytest.raises(GuardViolation):
        is_isomorphic(g, g)


def test_level_components_counts():
    X, f = circle_complex(24)
    assert level_components(X, f, 0.0)[0] == 2
    assert level_components(X, f, 1.0)[0] == 1
    assert level_components(X, f, 2.0)[0] == 0


def test_quotient_functoriality_mirror_map():
    # fold the circle onto a path by x -> |x| on indices; g(phi(v)) = f(v)
    n = 24
    X, f = circle_complex(n)
    half = n // 2
    path_verts = [(k, (float(k),)) for k in range(half + 1)]
    path_edges = [(k, k + 1) for k in range(half)]
    Y = SimplicialComplex.build(path_verts, path_edges)
    phi = np.array([min(k, n - k) for k in range(n)])
    g_vals = np.full(half + 1, np.nan)
    g_vals[phi] = f.values
    g = ScalarField(g_vals)
    assert np.allclose(g.values[phi], f.values)  # phi is function-preserving
    RX = reeb_graph(X, f)
    RY = reeb_graph(Y, g)
    # induced node map: node of RX -> node of RY holding the mapped witness
    for i, rep in enumerate(RX.node_reps):
        target_vertex = phi[rep]
        j = int(np.argmin(np.abs(RY.node_values - g.values[target_vertex])))
        assert RY.node_values[j] == RX.node_values[i]


def test_realize_as_complex_round_trip():
    X, f = torus_mesh(8, 8)
    g = reeb_graph(X, f)
    Xg, fg = realize_as_complex(g)
    assert is_isomorphic(reeb_graph(Xg, fg), g)
