"""Complex construction and thickening tests.

The staircase-prism thickening is the geometric core everything else sits on,
so the small cases are checked against hand enumerations and an independent
boundary-extraction oracle rather than against the implementation itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebsmooth.complexes import (
    ScalarField,
    SimplicialComplex,
    thicken_global,
    thicken_local,
)
from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.meshes import circle_complex, random_complex, random_field, torus_mesh


def _closure_holds(X):
    stored = {(v,) for v in range(X.n_vertices)}
    for d, rows in X.simplices.items():
        for row in rows:
            stored.add(tuple(int(v) for v in row))
    for simplex in list(stored):
        k = len(simplex)
        if k == 1:
            continue
        for drop in range(k):
            face = simplex[:drop] + simplex[drop + 1 :]
            if face not in stored:
                return False
    return True


def test_build_closes_under_faces():
    # giving only the top simplex must pull in every face
    X = SimplicialComplex.build(
        [(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (0.0, 1.0))], [(0, 1, 2)]
    )
    assert X.simplices[1].shape[0] == 3
    assert _closure_holds(X)


def test_torus_mesh_is_closed_complex():
    X, f = torus_mesh(16, 16)
    assert X.simplices[2].shape[0] == 512
    assert _closure_holds(X)
    X.validate()


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(ValidationError):
        SimplicialComplex.build([(0, (0.0,)), (1, (1.0,))], [(0, 3)])


def test_single_edge_global_thickening_hand_enumeration():
    # one edge, eps=1: two 3-vertex columns -> 6 vertices, the prism square
    # splits into 4 staircase triangles, field spans [min f - 1, max f + 1]
    X = SimplicialComplex.build([(0, (0.0,)), (1, (1.0,))], [(0, 1)])
    f = ScalarField(np.array([0.0, 3.0]))
    thick = thicken_global(X, f, 1.0)
    T = thick.complex
    assert T.n_vertices == 6
    assert T.simplices[2].shape[0] == 4
    assert thick.field.values.min() == -1.0
    assert thick.field.values.max() == 4.0
    # columns: vertex ids 3*i + layer, offsets exactly (-1, 0, +1)
    for i, base_val in enumerate((0.0, 3.0)):
        col = thick.field.values[3 * i : 3 * i + 3]
        assert col.tolist() == [base_val - 1.0, base_val, base_val + 1.0]
    # each staircase triangle must be monotone in vertex id within the prism
    for tri in T.simplices[2]:
        assert tri[0] < tri[1] < tri[2]


def _boundary_faces(rows):
    """Faces of top simplices that appear exactly once (brute-force oracle)."""
    from collections import Counter

    count = Counter()
    for row in rows:
        row = tuple(int(v) for v in row)
        for drop in range(len(row)):
            count[row[:drop] + row[drop + 1 :]] += 1
    return [face for face, c in count.items() if c == 1]


def test_triangle_thickening_boundary_is_a_sphere():
    # solid prism over a triangle: boundary surface must have chi = 2
    X = SimplicialComplex.build(
        [(0, (0.0, 0.0)), (1, (1.0, 0.0)), (2, (0.0, 1.0))], [(0, 1, 2)]
    )
    f = ScalarField(np.array([0.0, 0.25, 0.5]))
    thick = thicken_global(X, f, 1.0)
    tets = thick.complex.simplices[3]
    boundary = _boundary_faces(tets)
    verts = {v for face in boundary for v in face}
    edges = {
        (face[i], face[j])
        for face in boundary
        for i in range(3)
        for j in range(i + 1, 3)
    }
    chi = len(verts) - len(edges) + len(boundary)
    assert chi == 2


def test_thickened_field_values_bit_exact():
    X, f = torus_mesh(8, 8)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 0.9, X.n_vertices)
    thick = thicken_local(X, f, ScalarField(r))
    n = X.n_vertices
    base = np.repeat(np.arange(n), 3)
    offs = np.stack([-r, np.zeros(n), r], axis=1).ravel()
    # exact equality, not approx: the construction stores f(x) + t directly
    assert np.array_equal(thick.field.values, f.values[base] + offs)
    assert np.array_equal(thick.offset, offs)
    assert np.all(np.abs(thick.offset) <= r[base])


def test_constant_r_equals_global_thickening():
    X, f = circle_complex(12)
    eps = 0.4
    a = thicken_global(X, f, eps)
    b = thicken_local(X, f, ScalarField(np.full(X.n_vertices, eps)))
    for d in set(a.complex.simplices) | set(b.complex.simplices):
        assert np.array_equal(a.complex.simplices[d], b.complex.simplices[d])
    assert np.array_equal(a.field.values, b.field.values)


def test_vertex_only_complex_thickens_to_paths():
    X = SimplicialComplex.build([(0, (0.0,))], [])
    f = ScalarField(np.array([2.0]))
    thick = thicken_global(X, f, 0.25)
    assert thick.complex.n_vertices == 3
    assert thick.complex.simplices[1].shape[0] == 2
    assert thick.field.values.tolist() == [1.75, 2.0, 2.25]


def test_trapezoid_region_extremes_with_uneven_radii():
    X = SimplicialComplex.build([(0, (0.0,)), (1, (1.0,))], [(0, 1)])
    f = ScalarField(np.array([0.0, 1.0]))
    r = ScalarField(np.array([1.0, 2.0]))
    thick = thicken_local(X, f, r)
    assert thick.field.values.min() == -1.0
    assert thick.field.values.max() == 3.0


def test_thicken_rejects_dim_3_input():
    X = SimplicialComplex.build(
        [(i, (float(i), 0.0, 0.0)) for i in range(4)], [(0, 1, 2, 3)]
    )
    f = ScalarField(np.zeros(4))
    with pytest.raises(GuardViolation):
        thicken_global(X, f, 0.5)


def test_thicken_rejects_nonpositive_radius():
    X, f = circle_complex(6)
    with pytest.raises(GuardViolation):
        thicken_global(X, f, 0.0)
    with pytest.raises(ValidationError):
        thicken_local(X, f, ScalarField(np.full(X.n_vertices, -0.1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 2.0))
def test_random_thickening_invariants(seed, eps):
    rng = np.random.default_rng(seed)
    X = random_complex(rng)
    f = random_field(rng, X)
    thick = thicken_global(X, f, eps)
    thick.complex.validate()
    assert _closure_holds(thick.complex)
    base = np.repeat(np.arange(X.n_vertices), 3)
    assert np.all(np.abs(thick.offset) <= eps)
    assert np.array_equal(thick.field.values, f.values[base] + thick.offset)


@pytest.mark.parametrize(
    "n, k", [(1, 1), (1, 3), (2, 2), (60, 1), (60, 2), (60, 3), (1500, 2)]
)
def test_domain_diameter_is_exact_and_cached(n, k):
    # n = 1500 makes the computation run in chunks of rows
    rng = np.random.default_rng(100 * n + k)
    pts = rng.normal(size=(n, k))
    X = SimplicialComplex(np.arange(n), pts, {})
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    first = X.domain_diameter()
    assert first == float(np.sqrt(d2.max()))
    assert X.domain_diameter() is first  # the cached object, not a recomputation
