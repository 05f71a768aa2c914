"""Smoothing functors and the interleaving map pairs from the proofs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebsmooth.complexes import ScalarField, SimplicialComplex, thicken_global, thicken_local
from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.measures import EmpiricalMeasure
from reebsmooth.meshes import (
    circle_complex,
    random_complex,
    random_field,
    three_loop_rig,
    torus_mesh,
)
from reebsmooth.reeb import (
    ISO_MAX_NODES,
    is_isomorphic,
    realize_as_complex,
    reeb_graph,
)
from reebsmooth.smoothing import (
    SmoothingFactor,
    VertexMap,
    build_ambient_interleaving,
    build_local_interleaving,
    clamp_projection,
    smooth_global,
    smooth_local,
    verify_commutativity,
    verify_function_preservation,
)

from oracles import slab_oracle


def test_circle_contraction_thresholds():
    # range L = 2: the loop survives eps < 1 with value span L - 2*eps
    X, f = circle_complex(32)
    for eps, betti in ((0.5, 1), (0.9, 1), (1.1, 0)):
        g = smooth_global(X, f, eps)
        assert g.betti1() == betti
        if betti == 1:
            span = float(g.node_values.max() - g.node_values.min())
            # outer span still 2 + 2eps; the surviving loop is the inner pair
            loop_vals = sorted(set(g.node_values.tolist()))[1:-1]
            assert len(loop_vals) == 2
            assert loop_vals[1] - loop_vals[0] == pytest.approx(2.0 - 2.0 * eps, abs=1e-9)
            assert span == pytest.approx(2.0 + 2.0 * eps, abs=1e-9)


def test_circle_smoothing_against_slab_oracle():
    X, f = circle_complex(32)
    for eps in (0.5, 0.9, 1.1):
        thick = thicken_global(X, f, eps)
        assert is_isomorphic(
            smooth_global(X, f, eps), slab_oracle(thick.complex, thick.field)
        )


def test_contraction_boundary_convention():
    # at exactly eps = L/2 the loop contracts (tie resolved by vertex order)
    X, f = circle_complex(32)
    assert smooth_global(X, f, 1.0).betti1() == 0


def test_constant_factor_reduction():
    for X, f in (circle_complex(20), torus_mesh(8, 8), three_loop_rig()):
        for eps in (0.2, 0.6):
            r = ScalarField(np.full(X.n_vertices, eps))
            assert is_isomorphic(smooth_local(X, f, r), smooth_global(X, f, eps))


def test_smoothing_never_increases_betti():
    rng = np.random.default_rng(9)
    X, f = three_loop_rig()
    base = reeb_graph(X, f).betti1()
    for eps in (0.05, 0.2, 0.5, 1.0):
        assert smooth_global(X, f, eps).betti1() <= base


def test_smooth_reeb_graph_directly():
    X, f = circle_complex(24)
    g = reeb_graph(X, f)
    sm = smooth_global(g, None, 0.3)
    assert sm.betti1() == 1
    assert float(sm.node_values.min()) == pytest.approx(-1.3, abs=1e-12)
    assert float(sm.node_values.max()) == pytest.approx(1.3, abs=1e-12)
    with pytest.raises(ValidationError):
        smooth_global(g, f, 0.3)  # field argument is the graph's own values


def test_local_interleaving_equal_radii_is_identity():
    X, f = torus_mesh(6, 6)
    r = ScalarField(np.full(X.n_vertices, 0.4))
    pair = build_local_interleaving(X, f, r, r)
    assert pair.eps == 0.0
    assert float(np.max(np.abs(pair.forward.residual))) == 0.0
    assert float(np.max(np.abs(pair.backward.residual))) == 0.0
    # zero-residual maps send each layer to itself
    assert np.array_equal(pair.forward.source_offset, pair.forward.target_offset)
    g1 = smooth_local(X, f, r)
    g2 = smooth_local(X, f, r)
    assert is_isomorphic(g1, g2)


def test_local_interleaving_one_two_hand_values():
    # r1 = 1, r2 = 2 on a single edge: forward residuals all 0 (|t| <= 1 <= 2),
    # backward residuals t - clamp(t, 1) with max exactly 1 at t = +-2
    X = SimplicialComplex.build([(0, (0.0,)), (1, (1.0,))], [(0, 1)])
    f = ScalarField(np.array([0.0, 0.5]))
    r1 = ScalarField(np.ones(2))
    r2 = ScalarField(np.full(2, 2.0))
    pair = build_local_interleaving(X, f, r1, r2)
    assert pair.eps == 1.0
    assert float(np.max(np.abs(pair.forward.residual))) == 0.0
    assert float(np.max(np.abs(pair.backward.residual))) == 1.0
    rep = verify_function_preservation(pair)
    assert rep["passed"] and rep["max_violation"] == 0.0
    com = verify_commutativity(pair)
    assert com["passed"]
    com_fine = verify_commutativity(pair, samples=64)  # finer path discretization
    assert com_fine["passed"]


def test_local_interleaving_random_radii_residual_bound():
    rng = np.random.default_rng(13)
    X, f = torus_mesh(6, 6)
    for _ in range(5):
        r1 = ScalarField(rng.uniform(0.1, 1.0, X.n_vertices))
        r2 = ScalarField(rng.uniform(0.1, 1.0, X.n_vertices))
        pair = build_local_interleaving(X, f, r1, r2)
        eps = float(np.max(np.abs(r1.values - r2.values)))
        assert pair.eps == pytest.approx(eps, abs=0.0)
        for vm in (pair.forward, pair.backward):
            assert np.all(np.abs(vm.residual) <= eps + 1e-12)
        assert verify_function_preservation(pair)["passed"]
        assert verify_commutativity(pair)["passed"]


def test_local_interleaving_reads_the_thickening_vertex_table():
    # the maps are built from the three-layer vertex table alone; it must be
    # the triangulated thickening's, bit for bit, on every fixture
    rng = np.random.default_rng(17)
    for X, f in (circle_complex(20), torus_mesh(8, 8), three_loop_rig()):
        r1 = ScalarField(rng.uniform(0.1, 0.9, X.n_vertices))
        r2 = ScalarField(rng.uniform(0.1, 0.9, X.n_vertices))
        pair = build_local_interleaving(X, f, r1, r2)
        for vm, r, field in (
            (pair.forward, r1, pair.context["field1"]),
            (pair.backward, r2, pair.context["field2"]),
        ):
            thick = thicken_local(X, f, r)
            assert np.array_equal(vm.base, thick.base_index)
            assert np.array_equal(vm.source_offset, thick.offset)
            assert np.array_equal(field, thick.field.values)


@pytest.mark.parametrize(
    "bad",
    [
        lambda n: np.full(n - 1, 0.3),
        lambda n: np.zeros(n),
        lambda n: np.full(n, -0.3),
        lambda n: np.where(np.arange(n) == 2, np.nan, 0.3),
    ],
    ids=["misaligned", "zero", "negative", "nan"],
)
def test_local_interleaving_rejects_bad_radii(bad):
    X, f = circle_complex(12)
    good = np.full(X.n_vertices, 0.3)
    for r1, r2 in ((bad(X.n_vertices), good), (good, bad(X.n_vertices))):
        with pytest.raises(ValidationError):
            build_local_interleaving(X, f, r1, r2)


def test_ambient_interleaving_identity_and_random():
    X, f = torus_mesh(6, 6)
    pair0 = build_ambient_interleaving(X, f, f)
    assert pair0.eps == 0.0
    assert verify_commutativity(pair0)["max_violation"] == 0.0

    rng = np.random.default_rng(21)
    g = ScalarField(f.values + rng.uniform(-0.3, 0.3, X.n_vertices))
    pair = build_ambient_interleaving(X, f, g)
    assert pair.eps == float(np.max(np.abs(f.values - g.values)))
    prep = verify_function_preservation(pair)
    assert prep["passed"] and prep["max_violation"] <= 1e-12
    com = verify_commutativity(pair)
    # the two residuals are fl(f-g) and fl(g-f); IEEE negation is exact
    assert com["passed"] and com["max_violation"] == 0.0


def test_corrupted_residual_fails_verification():
    X, f = circle_complex(12)
    r1 = ScalarField(np.full(X.n_vertices, 0.5))
    r2 = ScalarField(np.full(X.n_vertices, 0.8))
    pair = build_local_interleaving(X, f, r1, r2)
    bad = VertexMap(
        base=pair.forward.base,
        source_offset=pair.forward.source_offset,
        target_offset=pair.forward.target_offset,
        residual=pair.forward.residual + 1e-6,
    )
    broken = type(pair)(
        kind=pair.kind,
        eps=pair.eps,
        forward=bad,
        backward=pair.backward,
        base=pair.base,
        context=pair.context,
    )
    assert not verify_function_preservation(broken)["passed"]


def test_clamp_projection_basics():
    t = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert clamp_projection(t, 1.0).tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    r = np.array([0.25, 1.0, 2.0, 1.0, 0.25])
    assert clamp_projection(t, r).tolist() == [-0.25, -0.5, 0.0, 0.5, 0.25]


def test_measure_driven_factors_resolve_and_smooth():
    X, f = circle_complex(24)
    rng = np.random.default_rng(2)
    mu = EmpiricalMeasure.from_raw(
        X.coords + rng.normal(0, 0.03, X.coords.shape), np.ones(X.n_vertices)
    )
    for factor in (SmoothingFactor("dtm", 0.2), SmoothingFactor("kernel", 0.4)):
        r = factor.resolve(X, mu)
        assert np.all(r.values > 0)
        g = smooth_local(X, f, factor, mu)
        assert g.n_nodes >= 2
    with pytest.raises(ValidationError):
        SmoothingFactor("dtm", 0.2).resolve(X)  # needs the measure


def test_constant_factor_is_not_floored():
    # 1e-9 is below the dtm/kernel radius floor (1e-6 times the diameter, 2e-6
    # here); a constant radius is used as given, as smooth_global uses eps
    X, f = circle_complex(24)
    local = smooth_local(X, f, SmoothingFactor("constant", 1e-9))
    glob = smooth_global(X, f, 1e-9)
    assert np.array_equal(local.node_values, glob.node_values)
    assert np.array_equal(local.node_reps, glob.node_reps)
    assert np.array_equal(local.edges, glob.edges)
    assert local.node_values.max() == 1.0 + 1e-9


def test_smoothing_factor_validation():
    with pytest.raises(ValidationError):
        SmoothingFactor("dtm", 1.5)
    with pytest.raises(ValidationError):
        SmoothingFactor("nope", 0.5)
    with pytest.raises(ValidationError):
        SmoothingFactor("kernel", -1.0)
    with pytest.raises(ValidationError):
        SmoothingFactor("constant", 1.0, scale=0.0)


# -- windowed smoothing against the staircase thickening -----------------------


def _edge_value_pairs(g):
    """(value of lower end, value of upper end) per edge, lexicographically sorted."""
    pairs = np.stack([g.node_values[g.edges[:, 0]], g.node_values[g.edges[:, 1]]], axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _assert_matches_thickening(X, got, thick):
    """`got` equals the Reeb graph of the staircase thickening, bit for bit.

    Node order within a level follows simplex order, which differs between the
    base and the thickened complex, so edges compare as value pairs.
    """
    want = reeb_graph(thick.complex, thick.field)
    assert got.node_values.tobytes() == want.node_values.tobytes()
    assert _edge_value_pairs(got).tobytes() == _edge_value_pairs(want).tobytes()
    if got.n_nodes <= ISO_MAX_NODES:
        assert is_isomorphic(got, want, value_tol=0)
    assert np.all(np.isin(got.node_reps, X.vertex_ids))


def _random_domain(rng, shape):
    if shape == "vertices":
        n = int(rng.integers(1, 9))
        return random_complex(rng, n, 0, 0)
    n = int(rng.integers(4, 15))
    if shape == "sparse":  # few edges: usually disconnected
        return random_complex(rng, n, n // 3, int(rng.integers(0, 2)))
    return random_complex(rng, n, int(rng.integers(n, 2 * n + 1)), int(rng.integers(0, n // 2)))


def _random_radii(rng, n, kind):
    if kind == "grid":  # on the field's 0.25 grid: f - r of one vertex hits f + r of another
        return 0.25 * rng.integers(1, 5, n)
    return rng.uniform(0.05, 1.0, n)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mixed", "sparse", "vertices"]),
    st.sampled_from(["grid", "uniform"]),
    st.sampled_from([4, None]),
)
def test_windowed_smoothing_matches_staircase_thickening(seed, shape, radii, quantize):
    rng = np.random.default_rng(seed)
    X = _random_domain(rng, shape)
    f = random_field(rng, X, quantize=quantize)
    r = ScalarField(_random_radii(rng, X.n_vertices, radii))
    _assert_matches_thickening(X, smooth_local(X, f, r), thicken_local(X, f, r))
    eps = 0.25 * int(rng.integers(1, 5)) if radii == "grid" else float(r.values[0])
    _assert_matches_thickening(X, smooth_global(X, f, eps), thicken_global(X, f, eps))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["grid", "uniform"]))
def test_windowed_smoothing_of_a_reeb_graph_domain(seed, radii):
    rng = np.random.default_rng(seed)
    X = _random_domain(rng, "mixed")
    g = reeb_graph(X, random_field(rng, X, quantize=4))
    G, values = realize_as_complex(g)
    r = ScalarField(_random_radii(rng, G.n_vertices, radii))
    _assert_matches_thickening(G, smooth_local(g, None, r), thicken_local(G, values, r))
    _assert_matches_thickening(G, smooth_global(g, None, 0.5), thicken_global(G, values, 0.5))


def _assert_commutes_with_the_quotient(X, f, eps):
    direct = smooth_global(X, f, eps)
    via_quotient = smooth_global(reeb_graph(X, f), None, eps)
    assert np.sort(direct.node_values).tobytes() == np.sort(via_quotient.node_values).tobytes()
    assert _edge_value_pairs(direct).tobytes() == _edge_value_pairs(via_quotient).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mixed", "sparse", "vertices"]),
    st.sampled_from([None, None, 4]),
)
def test_smoothing_commutes_with_the_quotient(seed, shape, quantize):
    """Smoothing X by eps gives the graph that smoothing its Reeb graph R_f does.

    The quotient X -> R_f has connected fibres and preserves f, so
    X x [-eps, eps] -> R_f x [-eps, eps] has connected fibres and preserves
    f + t (de Silva, Munch & Patel, "Categorified Reeb graphs", DCG 2016).
    This holds for radii that are constant on each level-set component, such
    as a constant eps; it does not hold for dtm or kernel radii in general,
    which vary along a component.
    """
    rng = np.random.default_rng(seed)
    X = _random_domain(rng, shape)
    f = random_field(rng, X, quantize=quantize)
    # radii on the quantized field's 0.25 grid make f - eps and f + eps tie
    for eps in (0.125, 0.25, 0.5, float(rng.uniform(0.05, 1.5))):
        _assert_commutes_with_the_quotient(X, f, eps)


def test_smoothing_commutes_with_the_quotient_on_the_meshes():
    for X, f in (circle_complex(32), three_loop_rig()):
        for eps in (0.03, 0.1, 0.3, 0.9, 1.1):
            _assert_commutes_with_the_quotient(X, f, eps)


def test_windowed_smoothing_on_the_meshes():
    rng = np.random.default_rng(4)
    for X, f in (circle_complex(32), three_loop_rig(), torus_mesh(8, 8)):
        for r in (_random_radii(rng, X.n_vertices, "grid"), np.full(X.n_vertices, 0.3)):
            r = ScalarField(r)
            _assert_matches_thickening(X, smooth_local(X, f, r), thicken_local(X, f, r))


def test_smoothing_keeps_the_thickening_guards():
    X3 = SimplicialComplex.build(
        [(i, (float(i), 0.0, 0.0)) for i in range(4)], [(0, 1, 2, 3)]
    )
    f3 = ScalarField(np.zeros(4))
    with pytest.raises(GuardViolation):
        smooth_global(X3, f3, 0.5)
    with pytest.raises(GuardViolation):
        smooth_local(X3, f3, np.full(4, 0.5))
    # radii are checked before the dimension guard
    with pytest.raises(ValidationError):
        smooth_local(X3, f3, np.full(4, -0.5))

    X, f = circle_complex(6)
    n = X.n_vertices
    for bad in (
        np.full(n, -0.1),
        np.zeros(n),
        np.full(n, np.nan),
        np.full(n, np.inf),
        np.full(n - 1, 0.5),
        np.full(n + 1, 0.5),
    ):
        with pytest.raises(ValidationError):
            smooth_local(X, f, bad)
    with pytest.raises(ValidationError):
        smooth_local(X, f, ScalarField(np.full(n, -0.1)))
    for eps in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(GuardViolation):
            smooth_global(X, f, eps)
    with pytest.raises(ValidationError):
        smooth_global(X, ScalarField(f.values[:-1]), 0.5)
