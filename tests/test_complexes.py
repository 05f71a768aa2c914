"""Complex construction and thickening tests.

The staircase-prism thickening is the geometric core everything else sits on,
so the small cases are checked against hand enumerations and an independent
boundary-extraction oracle rather than against the implementation itself.
"""

import itertools

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
from reebsmooth.reeb import reeb_graph


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
        [0, 1, 2], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], {2: [(0, 1, 2)]}
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
        SimplicialComplex.build([0, 1], [0.0, 1.0], {1: [(0, 3)]})


SQUARE_IDS = np.arange(4)
SQUARE_COORDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SQUARE_EDGES = [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]


def test_validate_rejects_rows_out_of_lex_order():
    # closed, but the edge rows are not lex sorted: the face lookup assumes
    # they are, so validate must refuse the complex rather than let a sweep
    # report it as not closed
    simplices = {1: [[1, 2], [0, 1], [0, 2], [1, 3], [2, 3]], 2: [[1, 2, 3], [0, 1, 2]]}
    with pytest.raises(ValidationError, match="lexicographic"):
        SimplicialComplex(SQUARE_IDS, SQUARE_COORDS, simplices)
    # the same complex with sorted rows is accepted and sweeps
    X = SimplicialComplex(
        SQUARE_IDS, SQUARE_COORDS, {1: SQUARE_EDGES, 2: [[0, 1, 2], [1, 2, 3]]}
    )
    assert reeb_graph(X, X.coords[:, 1]).n_nodes == 2


@pytest.mark.parametrize(
    "ids, coords, simplices, message",
    [
        ([], np.empty((0, 2)), {}, "at least one vertex"),
        ([0, 2, 1, 3], SQUARE_COORDS, {}, "strictly increasing"),
        (SQUARE_IDS, SQUARE_COORDS[:3], {}, "misaligned"),
        (SQUARE_IDS, np.zeros((4, 4)), {}, r"R\^k, 1 <= k <= 3"),
        (SQUARE_IDS, np.full((4, 2), np.nan), {}, "finite"),
        (SQUARE_IDS, SQUARE_COORDS, {0: [[0], [1]]}, "bad simplex dimension 0"),
        (SQUARE_IDS, SQUARE_COORDS, {4: [[0, 1, 2, 3, 4]]}, "bad simplex dimension 4"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[0, 1, 2]]}, "must have 2 vertices"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [0, 1]}, "must have 2 vertices"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[0, 4]]}, "missing vertex"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[-1, 0]]}, "missing vertex"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[1, 0]]}, "sorted ascending"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[0, 0]]}, "sorted ascending"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[0, 1], [0, 1]]}, "duplicate dimension-1"),
        (SQUARE_IDS, SQUARE_COORDS, {1: [[0, 2], [0, 1]]}, "lexicographic"),
        (
            SQUARE_IDS,
            SQUARE_COORDS,
            {1: [[0, 1], [1, 2]], 2: [[0, 1, 2]]},
            r"face \(0, 2\) of \(0, 1, 2\)",
        ),
        (
            SQUARE_IDS,
            SQUARE_COORDS,
            {1: [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], 3: [[0, 1, 2, 3]]},
            r"face \(1, 2, 3\) of \(0, 1, 2, 3\)",
        ),
    ],
    ids=[
        "no vertices",
        "unsorted vertex ids",
        "coords misaligned",
        "coords in R^4",
        "coords not finite",
        "dimension 0",
        "dimension 4",
        "wrong row width",
        "flat row",
        "index above range",
        "negative index",
        "unsorted row",
        "repeated vertex in a row",
        "duplicate row",
        "rows out of lex order",
        "missing face",
        "missing whole dimension",
    ],
)
def test_validate_rejections(ids, coords, simplices, message):
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex(ids, coords, simplices)


# ids 0, 10, 20, 30 given out of order, with their coords in the same order
SQUARE_BUILD_IDS = [30, 0, 20, 10]
SQUARE_BUILD_COORDS = SQUARE_COORDS[[3, 0, 2, 1]]
FIFTH = np.array([[5.0, 5.0]])


@pytest.mark.parametrize(
    "ids, coords, simplices, message",
    [
        ([], np.empty((0, 2)), {}, "at least one vertex"),
        (SQUARE_BUILD_IDS + [0], np.r_[SQUARE_BUILD_COORDS, FIFTH], {}, "duplicate vertex ids"),
        (SQUARE_BUILD_IDS + [2**70], np.r_[SQUARE_BUILD_COORDS, FIFTH], {}, "fit in 64 bits"),
        (SQUARE_BUILD_IDS, SQUARE_BUILD_COORDS[:3], {}, "coords misaligned with vertex table"),
        (SQUARE_BUILD_IDS, SQUARE_BUILD_COORDS, {1: [(0, 10), (10, 7)]}, "unknown vertex id 7"),
        (
            SQUARE_BUILD_IDS,
            SQUARE_BUILD_COORDS,
            {0: [(30,)], 1: [(2**70, 0)]},
            "unknown vertex id",
        ),
        (SQUARE_BUILD_IDS, SQUARE_BUILD_COORDS, {0: [(7,)]}, "unknown vertex id 7"),
        (
            SQUARE_BUILD_IDS,
            SQUARE_BUILD_COORDS,
            {1: [(0, 10)], 2: [(10, 20, 10)]},
            r"repeated vertex\): \(10, 20, 10\)",
        ),
        (
            SQUARE_BUILD_IDS + [40],
            np.r_[SQUARE_BUILD_COORDS, FIFTH],
            {4: [(0, 10, 20, 30, 40)]},
            "dimension 4 exceeds",
        ),
        (
            SQUARE_BUILD_IDS,
            SQUARE_BUILD_COORDS,
            {1: [(0, 10, 20)]},
            "dimension-1 rows must have 2 vertices",
        ),
        (
            SQUARE_BUILD_IDS,
            SQUARE_BUILD_COORDS,
            {2: [(0, 10, 20), (10, 20)]},
            "dimension-2 rows must have 3 vertices",
        ),
        (SQUARE_BUILD_IDS, SQUARE_BUILD_COORDS, {1: [0, 10]}, "dimension-1 rows must have 2"),
    ],
    ids=[
        "no vertices",
        "duplicate vertex id",
        "vertex id beyond int64",
        "coords misaligned",
        "unknown vertex id",
        "simplex id beyond int64",
        "unknown id in a dimension-0 row",
        "repeated vertex",
        "dimension above 3",
        "row wider than its dimension",
        "ragged rows",
        "flat row",
    ],
)
def test_build_rejections(ids, coords, simplices, message):
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex.build(ids, coords, simplices)


@pytest.mark.parametrize(
    "ids, simplices, message",
    [
        (np.array([0.5, 1.5]), {1: np.array([[0, 1]])}, "vertex ids must be integers"),
        ([0.0, 1.0], {1: [[0, 1]]}, "vertex ids must be integers"),
        (np.array([False, True]), {}, "vertex ids must be integers"),
        ([0, 1], {1: np.array([[0.5, 1.5]])}, "dimension-1 rows must hold integer vertex ids"),
        ([0, 1], {1: [[0.0, 1.0]]}, "dimension-1 rows must hold integer vertex ids"),
        ([0, 1], {1: np.array([[False, True]])}, "dimension-1 rows must hold integer vertex ids"),
        ([0, 1], {0: [[0.0]]}, "dimension-0 rows must hold integer vertex ids"),
    ],
    ids=["float id array", "float id list", "bool ids", "float row array", "float row list",
         "bool rows", "float dimension-0 row"],
)
def test_build_rejects_ids_that_are_not_integers(ids, simplices, message):
    # the int64 cast would truncate 0.5 and 1.5 to vertices 0 and 1
    with pytest.raises(ValidationError, match=message):
        SimplicialComplex.build(ids, [0.0, 1.0], simplices)


def test_build_accepts_empty_lists_and_unsigned_ids():
    # np.asarray([]) is float64, but an empty list holds no non-integer id
    X = SimplicialComplex.build(np.array([4, 2], dtype=np.uint32), [1.0, 0.0], {1: [], 2: []})
    assert X.vertex_ids.tolist() == [2, 4] and X.simplices == {}
    X = SimplicialComplex.build([0, 1], [0.0, 1.0], {1: np.array([[1, 0]], dtype=np.int32)})
    assert X.simplices[1].tolist() == [[0, 1]]


def _brute_force_closure(simplices):
    """Every face of every given simplex (as index tuples), by dimension."""
    out = {}
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(2, len(s) + 1):
            out.setdefault(k - 1, set()).update(itertools.combinations(s, k))
    return {d: sorted(faces) for d, faces in out.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_closure_and_face_table_match_brute_force(data):
    n = data.draw(st.integers(1, 9))
    ids = data.draw(st.lists(st.integers(-50, 10**6), min_size=n, max_size=n, unique=True))
    order = data.draw(st.permutations(range(n)))
    coords = [(float(i), 0.5 * i) for i in order]
    given_rows = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True),
            max_size=12,
        )
    )
    # redundant faces: repeat some simplices and some of their faces verbatim
    extra = [row[: len(row) - 1] for row in given_rows if len(row) > 1 and row[0] % 2]
    raw = [tuple(ids[i] for i in row) for row in given_rows + given_rows[:2] + extra]
    by_dim = {}
    for row in raw:
        by_dim.setdefault(len(row) - 1, []).append(row)
    X = SimplicialComplex.build([ids[i] for i in order], coords, by_dim)
    assert X.vertex_ids.tolist() == sorted(ids)
    assert X.coords[:, 0].tolist() == [float(ids.index(v)) for v in sorted(ids)]

    index = {v: i for i, v in enumerate(sorted(ids))}
    expected = _brute_force_closure([[index[v] for v in s] for s in raw])
    assert sorted(X.simplices) == sorted(expected)
    for d, rows in X.simplices.items():
        assert [tuple(r) for r in rows.tolist()] == expected[d]

    # the face table against a dict from simplex to global position
    blocks, first_vertex, pair_a, pair_b = X.face_table
    simplices = [(v,) for v in range(n)]
    for d in sorted(expected):
        simplices.extend(expected[d])
    position = {s: g for g, s in enumerate(simplices)}
    assert first_vertex.tolist() == [s[0] for s in simplices]
    want_a, want_b = [], []
    for d in sorted(expected):
        for p in range(d + 1):
            for s in expected[d]:
                want_a.append(position[s])
                want_b.append(position[s[:p] + s[p + 1 :]])
    assert pair_a.tolist() == want_a
    assert pair_b.tolist() == want_b

    # the sweep plan's stars: each (vertex, simplex) incidence once, and each
    # pair (c, f) once per vertex v of f, as the incidences (v, c) and (v, f)
    plan = X.sweep_plan()
    star = list(zip(plan.star_vertex.tolist(), plan.star_simplex.tolist()))
    assert sorted(star) == sorted((v, position[s]) for s in simplices for v in s)
    pairs = [(star[i], star[j]) for i, j in zip(plan.star_cofacet, plan.star_facet)]
    assert all(c[0] == f[0] for c, f in pairs)
    assert sorted((c[0], c[1], f[1]) for c, f in pairs) == sorted(
        (v, a, b) for a, b in zip(want_a, want_b) for v in simplices[b]
    )
    assert [tuple(e) for e in plan.blocks[1].tolist()] == expected.get(1, [])


def test_single_edge_global_thickening_hand_enumeration():
    # one edge, eps=1: two 3-vertex columns -> 6 vertices, the prism square
    # splits into 4 staircase triangles, field spans [min f - 1, max f + 1]
    X = SimplicialComplex.build([0, 1], [0.0, 1.0], {1: [(0, 1)]})
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
        [0, 1, 2], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], {2: [(0, 1, 2)]}
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
    X = SimplicialComplex.build([0], [0.0], {})
    f = ScalarField(np.array([2.0]))
    thick = thicken_global(X, f, 0.25)
    assert thick.complex.n_vertices == 3
    assert thick.complex.simplices[1].shape[0] == 2
    assert thick.field.values.tolist() == [1.75, 2.0, 2.25]


def test_trapezoid_region_extremes_with_uneven_radii():
    X = SimplicialComplex.build([0, 1], [0.0, 1.0], {1: [(0, 1)]})
    f = ScalarField(np.array([0.0, 1.0]))
    r = ScalarField(np.array([1.0, 2.0]))
    thick = thicken_local(X, f, r)
    assert thick.field.values.min() == -1.0
    assert thick.field.values.max() == 3.0


def test_thicken_rejects_dim_3_input():
    X = SimplicialComplex.build(
        np.arange(4), [(float(i), 0.0, 0.0) for i in range(4)], {3: [(0, 1, 2, 3)]}
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
