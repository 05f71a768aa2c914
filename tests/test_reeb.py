"""Reeb extraction: frozen small cases, oracle agreement, isomorphism."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from reebsmooth import _core, reeb, smoothing
from reebsmooth.complexes import ScalarField, SimplicialComplex
from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.experiments import ExperimentConfig, run_stability
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
    sweep_quotient,
    window_reeb_graph,
)

from oracles import slab_oracle


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
    assert (g.component_count(), g.betti1()) == (1, 0)


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
    assert g.component_count() == 2


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


# block sizes 1, 2 and 7 hand arcs across block boundaries on nearly every
# level, and make `window_reeb_graph` merge the levels that hold no node; the
# default size covers the production path
BLOCK_SIZES = (1, 2, 7, _core._BLOCK_COPIES)


def _assert_agrees_with_the_oracle(X, f):
    oracle = slab_oracle(X, f)
    for block in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_core, "_BLOCK_COPIES", block)
            _assert_same_graph(reeb_graph(X, f), oracle)


def test_oracle_agreement_random_fields():
    rng = np.random.default_rng(17)
    X1, _ = circle_complex(20)
    X2, _ = torus_mesh(8, 8)
    for X in (X1, X2):
        for _ in range(10):
            _assert_agrees_with_the_oracle(X, random_field(rng, X))


def test_oracle_agreement_with_forced_ties():
    # quantized fields produce plateaus and equal-value saddles
    rng = np.random.default_rng(23)
    for _ in range(15):
        X = random_complex(rng)
        _assert_agrees_with_the_oracle(X, random_field(rng, X, quantize=4))
    for trial in range(15):
        X = random_complex(rng, 14, 24, 8)
        f = random_field(rng, X, quantize=0.5 if trial % 3 == 0 else None)
        _assert_agrees_with_the_oracle(X, f)


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


@pytest.mark.parametrize("extra", [2, -2])
def test_level_components_checks_the_field_length(extra):
    X, f = circle_complex(12)
    values = np.concatenate([f.values, [5.0, 6.0]]) if extra > 0 else f.values[:extra]
    with pytest.raises(ValidationError, match="field length does not match vertex count"):
        level_components(X, values, 0.0)
    with pytest.raises(ValidationError, match="field length does not match vertex count"):
        reeb_graph(X, values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_array_fields_are_checked_like_scalar_fields(bad):
    X, f = circle_complex(12)
    values = f.values.copy()
    values[3] = bad
    with pytest.raises(ValidationError, match="scalar field values must be finite"):
        reeb_graph(X, values)
    with pytest.raises(ValidationError, match="scalar field values must be finite"):
        level_components(X, values, 0.0)


@pytest.mark.parametrize("a, b", [([0, 1], [1, 3]), ([0, 1], [1, -1]), ([0, 3], [1, 2]), ([-1, 0], [1, 2])])
def test_components_rejects_endpoints_outside_the_graph(a, b):
    # scipy reads CSR column indices unchecked; an out-of-range one must
    # raise here instead of corrupting memory
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    with pytest.raises(IndexError, match="outside the 3 graph nodes"):
        _core._components(3, a, b)
    assert _core._components(3, a % 3, b % 3)[0] >= 1


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


# -- the per-level sweep, kept as the oracle of the blocked sweep -------------


def _canonical_components(active, a_local, b_local):
    """Labels and representatives for the graph on `active` (ascending).

    Components are numbered by first occurrence in ascending simplex order;
    reps[q] is the smallest simplex index in component q.
    """
    n = len(active)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    graph = coo_matrix(
        (np.ones(len(a_local), dtype=bool), (a_local, b_local)), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first), dtype=np.int64)
    return rank[labels.astype(np.int64)], active[np.sort(first)]


def _per_level_sweep(min_rank, max_rank, pair_a, pair_b, n_levels):
    """The skeleton one level and one slab at a time, two labelings each."""
    min_rank = np.ascontiguousarray(min_rank, dtype=np.int64)
    max_rank = np.ascontiguousarray(max_rank, dtype=np.int64)
    pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
    pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
    m = len(min_rank)
    if len(pair_a):
        plo = np.maximum(min_rank[pair_a], min_rank[pair_b])
        phi = np.minimum(max_rank[pair_a], max_rank[pair_b])
    else:
        plo = np.empty(0, dtype=np.int64)
        phi = np.empty(0, dtype=np.int64)

    glob = np.full(m, -1, dtype=np.int64)  # node id per simplex at the current level
    node_level, node_rep = [], []
    arc_bottom, arc_top, arc_rep = [], [], []
    pending = []  # arcs from the previous slab waiting for their top node
    total = 0

    for t in range(n_levels):
        active = np.where((min_rank <= t) & (max_rank >= t))[0]
        pm = (plo <= t) & (phi >= t)
        a_loc = np.searchsorted(active, pair_a[pm])
        b_loc = np.searchsorted(active, pair_b[pm])
        labels, reps = _canonical_components(active, a_loc, b_loc)
        glob[active] = total + labels

        for e in pending:
            arc_top[e] = int(glob[arc_rep[e]])
        pending.clear()

        node_level.extend([t] * len(reps))
        node_rep.extend(int(r) for r in reps)
        total += len(reps)

        if t + 1 < n_levels:
            span = active[max_rank[active] >= t + 1]
            pm2 = pm & (phi >= t + 1)
            a2 = np.searchsorted(span, pair_a[pm2])
            b2 = np.searchsorted(span, pair_b[pm2])
            labels2, reps2 = _canonical_components(span, a2, b2)
            for r in reps2:
                arc_bottom.append(int(glob[r]))
                arc_top.append(-1)
                arc_rep.append(int(r))
                pending.append(len(arc_rep) - 1)

    return (
        np.array(node_level, dtype=np.int64),
        np.array(node_rep, dtype=np.int64),
        np.array(arc_bottom, dtype=np.int64),
        np.array(arc_top, dtype=np.int64),
        np.array(arc_rep, dtype=np.int64),
    )


def _simplex_windows(X, lo_rank, hi_rank):
    """Per-simplex rank windows from per-vertex ranks, as `window_reeb_graph` forms them."""
    blocks, _, pair_a, pair_b = X.face_table
    min_rank = np.concatenate([lo_rank[b].min(axis=1) for b in blocks])
    max_rank = np.concatenate([hi_rank[b].max(axis=1) for b in blocks])
    return min_rank, max_rank, pair_a, pair_b


COMPLEX_SHAPES = {
    "mixed": (12, 18, 6),
    "sparse": (14, 5, 0),  # disconnected, with isolated vertices
    "vertices": (6, 0, 0),  # no pairs at all
}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(COMPLEX_SHAPES)),
    st.integers(1, 9),
    st.sampled_from(["zero", "vertex"]),
)
def test_blocked_sweep_matches_per_level_sweep(seed, shape, n_levels, widths):
    # zero: every window is one level; vertex: windows formed from per-vertex
    # ranks as in smoothing
    rng = np.random.default_rng(seed)
    X = random_complex(rng, *COMPLEX_SHAPES[shape])
    windows = _simplex_windows(X, *_random_ranks(rng, X, n_levels, widths))
    _assert_every_block_size_matches(X, windows, n_levels)


def _random_ranks(rng, X, n_levels, widths):
    """Per-vertex ranks lo <= hi: equal ("zero") or up to 3 levels apart (otherwise)."""
    lo = rng.integers(0, n_levels, size=X.n_vertices)
    hi = lo if widths == "zero" else np.minimum(lo + rng.integers(0, 4, size=len(lo)), n_levels - 1)
    return lo, hi


def _assert_every_block_size_matches(X, args, n_levels):
    # the sweep over every level (key 2t for level t), from the complex's plan
    expected = _per_level_sweep(*args, n_levels)
    min_rank, max_rank, pair_a, pair_b = args
    for block in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_core, "_BLOCK_COPIES", block)
            got = sweep_quotient(
                2 * min_rank, 2 * max_rank, pair_a, pair_b, n_levels, plan=X.sweep_plan()
            )
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e), block


def _random_solid(rng):
    """A random closed complex with tetrahedra, so that links have edge facets."""
    n = 8
    simplices = [tuple(rng.choice(n, size=4, replace=False).tolist()) for _ in range(5)]
    simplices += [tuple(rng.choice(n, size=3, replace=False).tolist()) for _ in range(3)]
    coords = rng.uniform(-1.0, 1.0, size=(n, 3))
    return SimplicialComplex.build([(i, coords[i]) for i in range(n)], simplices)


# Pinched complexes: the link of the pinch point is disconnected, so the one
# pair that joins the two sides is not implied and must stay.
PINCHED = {
    "triangles at a vertex": [(0, 1, 2), (0, 3, 4)],
    "tetrahedra at an edge": [(0, 1, 2, 3), (0, 1, 4, 5)],
}


def _pinched(name):
    rows = PINCHED[name]
    n = max(max(r) for r in rows) + 1
    return SimplicialComplex.build([(i, [float(i), float(i % 2), 0.0]) for i in range(n)], rows)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["solid"] + sorted(PINCHED)),
    st.integers(1, 9),
    st.sampled_from(["zero", "vertex"]),
)
def test_contracted_sweep_matches_per_level_sweep_with_tetrahedra(seed, shape, n_levels, widths):
    # windows from per-vertex ranks, so every pair is nested and the
    # contraction prunes links
    rng = np.random.default_rng(seed)
    X = _random_solid(rng) if shape == "solid" else _pinched(shape)
    windows = _simplex_windows(X, *_random_ranks(rng, X, n_levels, widths))
    _assert_every_block_size_matches(X, windows, n_levels)


def _kept_pairs(X):
    _, _, pair_a, pair_b = X.face_table
    kept = X.sweep_plan().kept
    return pair_a[kept], pair_b[kept]


def test_link_pruning_keeps_only_the_pairs_that_join():
    # on a closed surface every vertex link is connected: no vertex facet stays
    X, _ = torus_mesh(8, 8)
    cofacet, facet = _kept_pairs(X)
    assert len(facet) and np.all(facet >= X.n_vertices)
    # the pinch's joining pair stays, and only it below the top dimension
    cofacet, facet = _kept_pairs(_pinched("triangles at a vertex"))
    assert facet.tolist() == [0]
    X = _pinched("tetrahedra at an edge")
    cofacet, facet = _kept_pairs(X)
    edges = len(X.simplices[1])
    assert np.count_nonzero(facet < X.n_vertices + edges) == 1


def _vertices(m):
    """A complex of m isolated vertices."""
    return SimplicialComplex(np.arange(m), np.zeros((m, 1)), {})


def test_sweep_head_codes_do_not_wrap():
    # 40000 isolated vertices spread over 200000 levels: a block spans some
    # 70000 levels, so a head code (key offset) * m + simplex passes 2**31
    rng = np.random.default_rng(0)
    m, n_levels = 40000, 200000
    rank = rng.integers(0, n_levels, size=m)
    none = np.empty(0, dtype=np.int64)
    node_level, node_rep, arc_bottom, _, _ = sweep_quotient(
        2 * rank, 2 * rank, none, none, n_levels, plan=_vertices(m).sweep_plan()
    )
    order = np.lexsort((np.arange(m), rank))
    assert np.array_equal(node_level, rank[order])
    assert np.array_equal(node_rep, order)
    assert len(arc_bottom) == 0


def test_blocked_sweep_matches_per_level_sweep_on_a_torus():
    rng = np.random.default_rng(5)
    X, _ = torus_mesh(8, 8)
    for quantize in (None, 4):
        f = random_field(rng, X, quantize=quantize).values
        levels = np.unique(f)
        rank = np.searchsorted(levels, f)
        args = _simplex_windows(X, rank, rank)
        expected = _per_level_sweep(*args, len(levels))
        got = sweep_quotient(
            2 * args[0], 2 * args[1], *args[2:], len(levels), plan=X.sweep_plan()
        )
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


SWEEP_PEAK_MB = 48


def test_sweep_memory_follows_the_block_size():
    # A 48 x 48 random-field torus: 13824 simplices active on some 10.8M
    # (simplex, level) pairs, so any array over all copies at once would
    # take 170 MB.  What stays is the pre-splice skeleton itself (some
    # 380k nodes and arcs, 14 MB of output) and one block at a time.
    X, _ = torus_mesh(48, 48)
    f = random_field(np.random.default_rng(0), X).values
    levels = np.unique(f)
    rank = np.searchsorted(levels, f)
    min_rank, max_rank, pair_a, pair_b = _simplex_windows(X, rank, rank)
    assert (max_rank - min_rank + 1).sum() > 10**7
    plan = X.sweep_plan()
    tracemalloc.start()
    try:
        out = sweep_quotient(2 * min_rank, 2 * max_rank, pair_a, pair_b, len(levels), plan=plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out[0]) > 10**5
    assert peak < SWEEP_PEAK_MB * 2**20


TORUS_SWEEP_PEAK_MB = 1.5


def test_sweep_memory_on_the_stability_torus():
    # The 12 x 12 torus's smoothing windows, the largest sweep of a
    # three-trial stability run, labelled in blocks of _BLOCK_COPIES copies
    # over every level; a retuned block size shows here before it shows in a
    # process's RSS.  The production call, which sweeps only the kept
    # levels, stays within the same bound.
    calls = []

    def record(X, lo, hi):
        calls.append((X, lo, hi))
        return window_reeb_graph(X, lo, hi)

    config = ExperimentConfig(mode="dtm", trials=3, seed=11, threads=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothing, "window_reeb_graph", record)
        run_stability(config)
    windows = []
    for X, lo, hi in calls:
        levels = np.unique(np.concatenate([lo, hi]))
        ranks = np.searchsorted(levels, lo), np.searchsorted(levels, hi)
        windows.append((_simplex_windows(X, *ranks), len(levels), (X, lo, hi)))
    (min_rank, max_rank, pair_a, pair_b), n_levels, call = max(
        windows, key=lambda w: int((w[0][1] - w[0][0] + 1).sum())
    )
    assert len(min_rank) == 144 + 432 + 288 and (max_rank - min_rank + 1).sum() > 10**5
    plan = call[0].sweep_plan()
    for sweep in (
        lambda: sweep_quotient(2 * min_rank, 2 * max_rank, pair_a, pair_b, n_levels, plan=plan),
        lambda: window_reeb_graph(*call),
    ):
        tracemalloc.start()
        try:
            sweep()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= TORUS_SWEEP_PEAK_MB * 2**20


# -- the static level test and the merged slabs ---------------------------------


def _complex(rng, shape):
    if shape in COMPLEX_SHAPES:
        return random_complex(rng, *COMPLEX_SHAPES[shape])
    return _random_solid(rng) if shape == "solid" else _pinched(shape)


SHAPES = sorted(COMPLEX_SHAPES) + ["solid"] + sorted(PINCHED)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SHAPES),
    st.integers(1, 9),
    st.sampled_from(["zero", "vertex"]),
)
def test_kept_levels_hold_every_node(seed, shape, n_levels, widths):
    # few levels force ties and plateaus; the nodes are those that the sweep
    # over every level and the splice keep
    rng = np.random.default_rng(seed)
    X = _complex(rng, shape)
    lo, hi = _random_ranks(rng, X, n_levels, widths)
    min_rank, max_rank, pair_a, pair_b = _simplex_windows(X, lo, hi)
    keep = _core.kept_levels(X.sweep_plan(), lo, hi, min_rank, max_rank, n_levels)
    node_level, node_rep, arc_bottom, arc_top, _ = _per_level_sweep(
        min_rank, max_rank, pair_a, pair_b, n_levels
    )
    graph = reeb._finalize(node_level.astype(np.float64), node_rep, arc_bottom, arc_top)
    assert np.all(keep[graph.node_values.astype(np.int64)])


def _all_levels_graph(X, lo, hi):
    """`window_reeb_graph` with every level swept, by the per-level sweep."""
    _, first_vertex, _, _ = X.face_table
    levels = np.unique(np.concatenate([lo, hi]))
    windows = _simplex_windows(X, np.searchsorted(levels, lo), np.searchsorted(levels, hi))
    node_level, node_rep, arc_bottom, arc_top, _ = _per_level_sweep(*windows, len(levels))
    return reeb._finalize(
        levels[node_level], X.vertex_ids[first_vertex[node_rep]], arc_bottom, arc_top
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SHAPES),
    st.integers(1, 9),
    st.sampled_from(["plain", "zero", "vertex"]),
)
def test_merged_slabs_match_the_sweep_over_every_level(seed, shape, n_levels, widths):
    # plain: one field, as `reeb_graph` passes it; zero and vertex: windowed
    # values on few levels, so ties and plateaus
    rng = np.random.default_rng(seed)
    X = _complex(rng, shape)
    if widths == "plain":
        lo = hi = random_field(rng, X, quantize=n_levels if n_levels > 4 else None).values
    else:
        lo, hi = (r.astype(np.float64) for r in _random_ranks(rng, X, n_levels, widths))
        hi = lo if widths == "zero" else hi
    expected = _all_levels_graph(X, lo, hi)
    for block in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_core, "_BLOCK_COPIES", block)
            got = window_reeb_graph(X, lo, hi)
        assert np.array_equal(got.node_values, expected.node_values), block
        assert np.array_equal(got.node_reps, expected.node_reps), block
        assert np.array_equal(got.edges, expected.edges), block


def test_merged_slabs_on_a_smoothed_torus():
    # a stability-size sweep: most levels merge into slabs
    X, f = torus_mesh(12, 12)
    values = random_field(np.random.default_rng(2), X).values
    windows = ((f.values - 0.4, f.values + 0.4), (values, values), (values - 0.1, values + 0.3))
    for lo, hi in windows:
        expected = _all_levels_graph(X, lo, hi)
        got = window_reeb_graph(X, lo, hi)
        assert np.array_equal(got.node_values, expected.node_values)
        assert np.array_equal(got.node_reps, expected.node_reps)
        assert np.array_equal(got.edges, expected.edges)


def test_window_lo_above_hi_is_rejected():
    # a vertex with lo above hi would have an empty window, which the
    # sweep does not take
    X, f = circle_complex(12)
    hi = f.values.copy()
    hi[3] -= 0.5
    with pytest.raises(ValidationError, match="lo value exceeds its hi value"):
        window_reeb_graph(X, f.values, hi)


@pytest.mark.parametrize("first, last", [(1, 2), (0, 1)])
def test_a_slab_without_a_copy_on_its_level_raises(first, last):
    # one vertex whose key window starts (ends) on slab key 1: no copy of its
    # slab component reaches the level below (above)
    none = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="no copy on the level below or above"):
        sweep_quotient(
            np.array([first]), np.array([last]), none, none, 2, plan=_vertices(1).sweep_plan()
        )


def test_a_plan_needs_windows_that_nest_every_pair():
    cases = [
        # vertex 0's window [0, 0] is not inside the edge's [2, 2]
        ((0, 1), [0, 0, 2], [0, 2, 2]),
        # every pair nests, but the triangle's [0, 4] is wider than the hull
        # [0, 2] of its vertices' windows (and of its edges')
        ((0, 1, 2), [0, 0, 0, 0, 0, 0, 0], [0, 0, 2, 0, 2, 2, 4]),
    ]
    for row, first, last in cases:
        X = SimplicialComplex.build([(i, (float(i),)) for i in row], [row])
        _, _, pair_a, pair_b = X.face_table
        with pytest.raises(ValueError, match="hulls of their vertices' windows"):
            sweep_quotient(
                np.array(first), np.array(last), pair_a, pair_b, 3, plan=X.sweep_plan()
            )


def test_a_complex_builds_its_sweep_plan_once():
    X, f = torus_mesh(8, 8)
    calls = []
    contract = _core._contract

    def counted(*args):
        calls.append(args)
        return contract(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_core, "_contract", counted)
        mp.setattr(_core, "_BLOCK_COPIES", 7)
        plan = X.sweep_plan()
        graphs = [reeb_graph(X, f)]
        graphs += [window_reeb_graph(X, f.values - r, f.values + r) for r in (0.2, 0.5)]
    assert X.sweep_plan() is plan and len(calls) == 1
    assert [g.n_nodes for g in graphs] == [4, 4, 4]
