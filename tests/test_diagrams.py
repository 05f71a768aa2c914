"""Extended persistence and bottleneck distance, against brute-force oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebsmooth.complexes import ScalarField, SimplicialComplex
from reebsmooth.diagrams import (
    DiagramPoint,
    PersistenceDiagram,
    bottleneck,
    extended_persistence,
    interleaving_lower_bound,
)
from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.meshes import circle_complex, random_complex, random_field, three_loop_rig, torus_mesh
from reebsmooth.reeb import ReebGraph, reeb_graph
from reebsmooth.smoothing import smooth_local

from oracles import bottleneck_oracle


def _points(dgm):
    return {(p.birth, p.death, p.dim, p.cls) for p in dgm.points}


def test_interval_graph_single_essential_pair():
    g = ReebGraph(
        np.array([0.0, 3.0]), np.array([0, 1]), np.array([[0, 1]], dtype=np.int64)
    )
    dgm = extended_persistence(g)
    assert _points(dgm) == {(0.0, 3.0, 0, "extended")}


def test_circle_diagram_frozen():
    X, f = circle_complex(24)
    dgm = extended_persistence(reeb_graph(X, f))
    assert _points(dgm) == {
        (-1.0, 1.0, 0, "extended"),
        (1.0, -1.0, 1, "extended"),
    }


def test_torus_diagram_spans_saddles():
    X, f = torus_mesh(12, 12)
    dgm = extended_persistence(reeb_graph(X, f))
    # saddle values of the upright torus height field are the tube extremes
    assert (1.0, -1.0, 1, "extended") in _points(dgm)
    assert (-3.0, 3.0, 0, "extended") in _points(dgm)
    assert len(dgm.points) == 2


def test_three_loop_rig_extended_loops():
    X, f = three_loop_rig()
    dgm = extended_persistence(reeb_graph(X, f))
    loops = sorted(
        (p.birth - p.death for p in dgm.points if p.dim == 1 and p.cls == "extended"),
        reverse=True,
    )
    assert np.allclose(loops, [1.0, 0.45, 0.3], atol=1e-9)


def test_merge_split_graph_ordinary_pairs():
    # two minima joined at a saddle: one ordinary dim-0 point (younger min)
    X = SimplicialComplex.build(
        [(0, (0.0,)), (1, (1.0,)), (2, (2.0,)), (3, (3.0,))],
        [(0, 2), (1, 2), (2, 3)],
    )
    f = ScalarField(np.array([0.0, 0.5, 1.0, 2.0]))
    dgm = extended_persistence(reeb_graph(X, f))
    pts = _points(dgm)
    assert (0.5, 1.0, 0, "ordinary") in pts
    assert (0.0, 2.0, 0, "extended") in pts
    # mirrored: relative pairing from the down sweep
    fd = ScalarField(-np.array([0.0, 0.5, 1.0, 2.0]))
    dgm_d = extended_persistence(reeb_graph(X, fd))
    assert (-0.5, -1.0, 1, "relative") in _points(dgm_d)


def test_coordinates_are_node_values():
    rng = np.random.default_rng(30)
    for _ in range(10):
        X = random_complex(rng)
        g = reeb_graph(X, random_field(rng, X))
        dgm = extended_persistence(g)
        vals = set(g.node_values.tolist())
        for p in dgm.points:
            assert p.birth in vals and p.death in vals


# -- extended persistence oracle: elder-rule sweeps and band cycle ranks -------


def _merge_sweep(order, values, neighbors):
    """Elder-rule 0-dim pairs along a sweep; returns (pairs, root_of).

    `order` lists node indices in sweep order; `neighbors[v]` holds nodes
    adjacent to v that come before it in the sweep.  Components are tracked
    with a union-find keeping the oldest (earliest-sweep) node as root; a
    merge kills the younger component at v's value.
    """
    parent = {}
    rank_in_sweep = {v: i for i, v in enumerate(order)}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    pairs = []
    for v in order:
        parent[v] = v
        for u in neighbors[v]:
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            # the component whose root entered the sweep later dies here
            old, young = (ru, rv) if rank_in_sweep[ru] < rank_in_sweep[rv] else (rv, ru)
            pairs.append((values[young], values[v]))
            parent[young] = old
    return pairs, find


def _cycle_rank(vals, edges, lo, hi):
    """dim of the cycle space of the subgraph of edges inside [lo, hi]."""
    keep = [(int(a), int(b)) for a, b in edges if vals[a] >= lo and vals[b] <= hi]
    if not keep:
        return 0
    nodes = {v for e in keep for v in e}
    parent = {v: v for v in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    n_comp = len(nodes)
    for a, b in keep:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            n_comp -= 1
    return len(keep) - len(nodes) + n_comp


def _essential_loops(vals, edges, q):
    """Extended dim-1 points (top, bottom) by inclusion-exclusion on band ranks.

    The number of loop classes with top <= b and bottom >= d equals the cycle
    rank of the band subgraph of edges lying inside [d, b], so point
    multiplicities fall out of second differences over the grid of node values.
    """
    if len(edges) == 0:
        return []
    distinct = np.unique(vals)
    k = len(distinct)
    rank = {}

    def r(bi, di):
        # bi, di index into distinct values; out-of-range means empty band
        if bi < 0 or di >= k:
            return 0
        key = (bi, di)
        if key not in rank:
            rank[key] = _cycle_rank(vals, edges, distinct[di], distinct[bi])
        return rank[key]

    points = []
    for bi in range(k):
        for di in range(bi + 1):
            mult = r(bi, di) - r(bi - 1, di) - r(bi, di + 1) + r(bi - 1, di + 1)
            if mult < 0:
                raise ValidationError("negative loop multiplicity; graph is inconsistent")
            for _ in range(mult):
                points.append(
                    DiagramPoint(float(distinct[bi]), float(distinct[di]), 1, "extended")
                )
    total = r(k - 1, 0)
    if len(points) != total:
        raise ValidationError("loop pairing did not exhaust the cycle space")
    return points


def _oracle_extended_persistence(graph):
    """Sweeps for the ordinary, relative and dim-0 extended points; band ranks
    for the loops.  O(k^2 E) in the number k of distinct node values."""
    vals = graph.node_values
    q = graph.n_nodes
    edges = graph.edges

    down_nb = {v: [] for v in range(q)}
    up_nb = {v: [] for v in range(q)}
    for a, b in edges:
        down_nb[int(b)].append(int(a))
        up_nb[int(a)].append(int(b))

    up_order = sorted(range(q), key=lambda v: (vals[v], v))
    down_order = sorted(range(q), key=lambda v: (-vals[v], v))

    points = []
    ordinary, find_up = _merge_sweep(up_order, vals, down_nb)
    for birth, death in ordinary:
        if birth != death:
            points.append(DiagramPoint(float(birth), float(death), 0, "ordinary"))
    relative, _ = _merge_sweep(down_order, vals, up_nb)
    for birth, death in relative:
        if birth != death:
            points.append(DiagramPoint(float(birth), float(death), 1, "relative"))

    # essential dim-0: value span of each connected component
    comp_min = {}
    comp_max = {}
    for v in range(q):
        root = find_up(v)
        comp_min[root] = min(comp_min.get(root, np.inf), vals[v])
        comp_max[root] = max(comp_max.get(root, -np.inf), vals[v])
    for root in sorted(comp_min):
        points.append(DiagramPoint(float(comp_min[root]), float(comp_max[root]), 0, "extended"))

    points.extend(_essential_loops(vals, edges, q))
    return PersistenceDiagram(tuple(points))


def _assert_extended_counts(g, dgm):
    """One extended loop per independent cycle, one span per component."""
    assert len(dgm.group(1, "extended")) == g.betti1()
    assert len(dgm.group(0, "extended")) == g.component_count()


def _assert_matches_oracle(g):
    dgm = extended_persistence(g)
    counts = Counter((p.birth, p.death, p.dim, p.cls) for p in dgm.points)
    want = Counter((p.birth, p.death, p.dim, p.cls) for p in _oracle_extended_persistence(g).points)
    assert counts == want
    _assert_extended_counts(g, dgm)


def _random_domain(rng, shape):
    if shape == "vertices":
        n = int(rng.integers(1, 9))
        return random_complex(rng, n, 0, 0)
    n = int(rng.integers(4, 15))
    if shape == "sparse":  # few edges: usually disconnected
        return random_complex(rng, n, n // 3, int(rng.integers(0, 2)))
    return random_complex(rng, n, int(rng.integers(n, 2 * n + 1)), int(rng.integers(0, n // 2)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mixed", "sparse", "vertices"]),
    st.sampled_from([4, None]),
)
def test_extended_persistence_matches_oracle_on_random_complexes(seed, shape, quantize):
    # quantize=4 puts values on a 0.25 grid: ties between nodes, plateaus in X
    rng = np.random.default_rng(seed)
    X = _random_domain(rng, shape)
    _assert_matches_oracle(reeb_graph(X, random_field(rng, X, quantize=quantize)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_extended_persistence_matches_oracle_on_built_graphs(seed, grid):
    # node values in no particular order, parallel edges, isolated nodes
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    vals = rng.integers(0, 5, n) / 4.0 if grid else rng.uniform(-1.0, 1.0, n)
    below = [(a, b) for a in range(n) for b in range(n) if vals[a] < vals[b]]
    picks = rng.integers(0, len(below), int(rng.integers(0, 3 * n + 1))) if below else []
    edges = np.array([below[i] for i in picks], dtype=np.int64).reshape(-1, 2)
    _assert_matches_oracle(ReebGraph(vals, np.arange(n), edges))


def test_extended_persistence_matches_oracle_on_smoothed_meshes():
    rng = np.random.default_rng(35)
    for X, f in (circle_complex(48), three_loop_rig(), torus_mesh(12, 12)):
        for r in (np.full(X.n_vertices, 0.1), rng.uniform(0.02, 0.6, X.n_vertices)):
            _assert_matches_oracle(smooth_local(X, f, ScalarField(r)))


def test_extended_persistence_at_scale():
    # the band-rank oracle takes about 20 s here; one reduction takes ms
    X, _ = torus_mesh(24, 24)
    g = reeb_graph(X, ScalarField(np.random.default_rng(24).uniform(-1.0, 1.0, X.n_vertices)))
    dgm = extended_persistence(g)
    assert (g.n_nodes, len(dgm.points)) == (298, 154)
    _assert_extended_counts(g, dgm)
    vals = set(g.node_values.tolist())
    assert all(p.birth in vals and p.death in vals for p in dgm.points)


def _random_diagram(rng, max_pts=6):
    pts = []
    for _ in range(rng.integers(0, max_pts + 1)):
        b = float(rng.uniform(-2, 2))
        d = b + float(rng.uniform(0, 2))
        pts.append(DiagramPoint(b, d, 0, "ordinary"))
    return PersistenceDiagram(tuple(pts))


def test_bottleneck_trivial_cases():
    rng = np.random.default_rng(31)
    d = _random_diagram(rng)
    assert bottleneck(d, d) == 0.0
    single = PersistenceDiagram((DiagramPoint(0.0, 1.0, 0, "ordinary"),))
    empty = PersistenceDiagram(())
    assert bottleneck(single, empty) == pytest.approx(0.5, abs=0.0)
    assert bottleneck(empty, single) == pytest.approx(0.5, abs=0.0)
    assert bottleneck(empty, empty) == 0.0


def test_bottleneck_against_exhaustive_oracle():
    rng = np.random.default_rng(32)
    for _ in range(200):
        d1 = _random_diagram(rng)
        d2 = _random_diagram(rng)
        got = bottleneck(d1, d2)
        want = bottleneck_oracle(d1, d2)
        assert got == pytest.approx(want, abs=1e-12)


def test_bottleneck_metric_properties():
    rng = np.random.default_rng(33)
    for _ in range(100):
        ds = [_random_diagram(rng, max_pts=4) for _ in range(3)]
        d01 = bottleneck(ds[0], ds[1])
        d10 = bottleneck(ds[1], ds[0])
        d02 = bottleneck(ds[0], ds[2])
        d12 = bottleneck(ds[1], ds[2])
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d02 <= d01 + d12 + 1e-9


def test_bottleneck_groups_by_class_and_dim():
    # same coordinates, different classes: must not match across groups
    p = DiagramPoint(0.0, 1.0, 0, "ordinary")
    q = DiagramPoint(0.0, 1.0, 1, "extended")
    assert bottleneck(
        PersistenceDiagram((p,)), PersistenceDiagram((q,))
    ) == pytest.approx(0.5, abs=1e-12)  # both charged to their diagonals


def test_bottleneck_size_guard():
    pts = tuple(DiagramPoint(0.0, float(i + 1), 0, "ordinary") for i in range(129))
    big = PersistenceDiagram(pts)
    with pytest.raises(GuardViolation):
        bottleneck(big, PersistenceDiagram(()))


def test_dim0_ordinary_stability_smoke():
    # bottleneck of ordinary dim-0 diagrams <= sup |f - g|
    rng = np.random.default_rng(34)
    X, f = torus_mesh(8, 8)
    for _ in range(10):
        g = ScalarField(f.values + rng.uniform(-0.15, 0.15, X.n_vertices))
        d_f = PersistenceDiagram(tuple(extended_persistence(reeb_graph(X, f)).group(0, "ordinary")))
        d_g = PersistenceDiagram(tuple(extended_persistence(reeb_graph(X, g)).group(0, "ordinary")))
        gap = float(np.max(np.abs(f.values - g.values)))
        assert bottleneck(d_f, d_g) <= gap + 1e-9


def test_interleaving_lower_bound_basics():
    X, f = circle_complex(24)
    g = reeb_graph(X, f)
    assert interleaving_lower_bound(g, g) == 0.0
    # circle range 2 vs range 1 (same min): hand diagrams
    h = ReebGraph(
        np.array([-1.0, 0.0]),
        np.array([0, 1]),
        np.array([[0, 1], [0, 1]], dtype=np.int64),
    )
    # extended dim-0: (-1,1) vs (-1,0); extended dim-1: (1,-1) vs (0,-1)
    # both groups need displacement 1; bottleneck = 1, proxy divides by 5
    got = interleaving_lower_bound(g, h)
    assert got == pytest.approx(1.0 / 5.0, abs=1e-12)
    assert got >= 0.0
