"""Simplicial complexes with piecewise-linear vertex fields, and prism thickenings.

A complex stores an id-sorted vertex table (integer ids, coordinates in R^k,
k <= 3) and, per dimension, an array of simplices as vertex-index rows, each
row ascending and the rows strictly increasing in lexicographic order.
Complexes are closed under taking faces.  `SimplicialComplex.build` is the
one construction route: every reader, mesh builder and the thickening calls
it.  In one pass of whole-array operations it checks the raw input, sorts
it, closes it under faces one dimension at a time, and reads the complex's
incidence table (`SimplicialComplex.face_table`) off that closure: the
deduplication that merges each dimension with the faces of the one above
also says where every face landed.  The sweeps in `reeb` read that table
together with its sweep plan (`SimplicialComplex.sweep_plan`, computed
once).

The staircase thickening is the reference construction of a smoothing's
domain {(x, t) : |t| <= r(x)}.  It replaces each vertex column by three copies
at offsets (-r(v), 0, +r(v)) and triangulates every prism with the staircase
(Freudenthal style, vertex-index ordered) decomposition, which is
face-compatible across neighbouring simplices because it depends only on the
vertex order.  The thickened field is f(x) + t, computed as one addition per
thickened vertex.  Smoothing itself sweeps the base complex instead (see
`smoothing`) and shares only the input checks, `thickening_inputs` and
`constant_radii`; the interleaving maps read only the three-layer vertex
table (`thickened_vertices`), and the tests use the triangulated thickening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._core import sweep_plan
from .errors import GuardViolation, ValidationError

MAX_COMPLEX_DIM = 3
MAX_BASE_DIM_FOR_THICKENING = 2
MAX_COORD_DIM = 3


@dataclass(frozen=True)
class ScalarField:
    """One real value per vertex of an associated complex (index aligned)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValidationError("scalar field must be a 1-d value array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("scalar field values must be finite")

    def __len__(self):
        return len(self.values)


def as_scalar_field(f):
    """f itself if it is a ScalarField, else the ScalarField of its values.

    Every function that takes a scalar field takes it through here, so a
    ScalarField or any array-like is checked the same way: 1-d, float64,
    finite.
    """
    return f if isinstance(f, ScalarField) else ScalarField(f)


def height_field(X):
    """The last coordinate of every vertex of X, as a field."""
    return ScalarField(X.coords[:, -1].copy())


@dataclass(frozen=True)
class VectorField:
    """One value in R^d (d in 1..3) per vertex, index aligned with a complex.

    Serves the vector-valued ambient interleaving maps (acceptance criterion
    C10).
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or not (1 <= v.shape[1] <= 3):
            raise ValidationError("vector field must be (n, d) with 1 <= d <= 3")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vector field values must be finite")

    @property
    def dim(self):
        return self.values.shape[1]

    def __len__(self):
        return len(self.values)


def _not_integers(values):
    """Whether values, which convert to int64, are of a float, bool or other
    non-integer dtype.  An empty list, float64 to numpy, holds no such value.
    """
    values = np.asarray(values)
    return values.size > 0 and values.dtype.kind not in "iu"


def _row_keys(rows):
    """One opaque key per row that compares like the row in lex order.

    Rows are nonnegative int64, so the big-endian byte view makes memcmp agree
    with numeric lexicographic order.
    """
    w = rows.shape[1]
    return np.ascontiguousarray(rows.astype(">i8")).view(f"V{8 * w}").ravel()


def _faces(rows):
    """Codim-1 faces of index rows, in "drop column p" order.

    Block p of the result (rows p*m .. (p+1)*m - 1) is `rows` with column p
    deleted, so face p*m + i belongs to row i.
    """
    return np.concatenate([np.delete(rows, p, axis=1) for p in range(rows.shape[1])])


def _close(n, by_dim):
    """Close ascending index rows under faces: (simplices, face_table).

    Runs top down, so each dimension is deduplicated once, together with the
    faces of the dimension above.  The inverse of that deduplication is where
    each of those faces lands, which is the dimension above's part of
    `pair_b`; an edge's faces are its own vertex indices.
    """
    top = max(by_dim, default=0)
    closed, facets = {}, {}
    faces = np.empty((0, top + 1), dtype=np.int64)
    for d in range(top, 0, -1):
        given = by_dim.get(d, faces[:0])
        rows = np.concatenate([given, faces])
        _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
        closed[d] = rows[first]
        facets[d + 1] = inverse[len(given) :]
        faces = _faces(closed[d])
    facets[1] = faces[:, 0]
    blocks = [np.arange(n, dtype=np.int64)[:, None]]
    blocks += [closed.get(d, np.empty((0, 2), dtype=np.int64)) for d in range(1, max(top, 1) + 1)]
    start = np.cumsum([0] + [len(b) for b in blocks])
    dims = range(1, len(blocks))
    pair_a = np.concatenate([np.tile(np.arange(start[d], start[d + 1]), d + 1) for d in dims])
    pair_b = np.concatenate([start[d - 1] + facets[d] for d in dims])
    first_vertex = np.concatenate([b[:, 0] for b in blocks])
    return closed, (blocks, first_vertex, pair_a, pair_b)


class SimplicialComplex:
    """Finite simplicial complex, dimension <= 3, with vertex coordinates.

    Made by `build`, which derives every attribute in one pass:

    vertex_ids : (n,) int64 array, strictly increasing
    coords : (n, k) float64 array, 1 <= k <= 3, finite
    simplices : dict dim -> (m, dim+1) int64 array of vertex *indices*, each
        row ascending and the rows strictly increasing in lexicographic order,
        for every dimension 1..dim; dimension 0 is the vertex table.  The
        complex is closed under faces.
    face_table : the global simplex enumeration (vertices first, then
        dimensions 1, 2, 3, each in row order) as a tuple (blocks,
        first_vertex, pair_a, pair_b): the per-dimension index-row arrays (an
        edge block even without edges), the smallest vertex index of each
        global simplex, and every (cofacet, facet) incidence as global
        indices, per dimension in "drop column p" order.
    """

    def __init__(self, vertex_ids, coords, simplices, face_table):
        """Store the arrays `build` derived, unchecked; call `build` instead."""
        self.vertex_ids = vertex_ids
        self.coords = coords
        self.simplices = simplices
        self.face_table = face_table
        self._diameter = None
        self._plan = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, vertex_ids, coords, simplices):
        """Build a closed complex from raw arrays; the one construction route.

        vertex_ids: (n,) integer array of distinct ids, in any order.  Ids
        and rows of a float, bool or other non-integer dtype are rejected, not
        truncated.
        coords: (n, k) or (n,) array of finite values, 1 <= k <= 3,
        row-aligned with vertex_ids.
        simplices: dict dim -> (m, dim+1) rows of vertex *ids*, in any row
        and column order.  Dimension-0 rows are checked for unknown ids and
        then dropped, since the vertex table implies them.  The vertices are
        sorted by id, all faces are added and the face table is derived.
        """
        try:
            ids = np.asarray(vertex_ids, dtype=np.int64)
        except OverflowError:
            raise ValidationError("vertex ids must fit in 64 bits") from None
        if _not_integers(vertex_ids):
            raise ValidationError("vertex ids must be integers")
        if ids.size == 0:
            raise ValidationError("complex needs at least one vertex")
        order = np.argsort(ids)
        ids = ids[order]
        if np.any(ids[1:] == ids[:-1]):
            raise ValidationError("duplicate vertex ids")
        if len(coords) != len(ids):
            raise ValidationError("coords misaligned with vertex table")
        by_dim = {}
        for d, given in sorted(simplices.items()):
            width = f"dimension-{d} rows must have {d + 1} vertices"
            try:
                raw = np.asarray(given, dtype=np.int64)
            except OverflowError:
                raise ValidationError("simplex references an unknown vertex id") from None
            except ValueError:
                raise ValidationError(width) from None
            if _not_integers(given):
                raise ValidationError(f"dimension-{d} rows must hold integer vertex ids")
            if raw.size == 0:
                continue
            if raw.ndim != 2 or raw.shape[1] != d + 1:
                raise ValidationError(width)
            rows = np.searchsorted(ids, raw)
            unknown = ids[np.minimum(rows, len(ids) - 1)] != raw
            if np.any(unknown):
                raise ValidationError(f"simplex references unknown vertex id {raw[unknown][0]}")
            rows.sort(axis=1)
            repeated = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
            if np.any(repeated):
                bad = tuple(raw[np.argmax(repeated)].tolist())
                raise ValidationError(f"degenerate simplex (repeated vertex): {bad}")
            if d > MAX_COMPLEX_DIM:
                raise ValidationError(f"simplex dimension {d} exceeds maximum {MAX_COMPLEX_DIM}")
            if d > 0:
                by_dim[d] = rows
        coords = np.asarray(coords, dtype=np.float64)[order]
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or not (1 <= coords.shape[1] <= MAX_COORD_DIM):
            raise ValidationError(f"coordinates must live in R^k, 1 <= k <= {MAX_COORD_DIM}")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("coordinates must be finite")
        return cls(ids, coords, *_close(len(ids), by_dim))

    def validate(self):
        """True if `build` of this complex's own arrays gives them all back
        unchanged (so closing adds nothing); ValidationError otherwise."""
        ids = self.vertex_ids
        # an index out of range reads as an end vertex, so its row comes back changed
        rows = {d: ids.take(r, mode="clip") for d, r in self.simplices.items()}
        mine, again = [
            [X.vertex_ids, X.coords, *X.simplices.values(), *X.face_table[0], *X.face_table[1:]]
            for X in (self, self.build(ids, self.coords, rows))
        ]
        if len(mine) != len(again) or not all(map(np.array_equal, mine, again)):
            raise ValidationError("complex differs from build() of its own arrays")
        return True

    # -- basic properties ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertex_ids)

    @property
    def dim(self):
        return max(self.simplices.keys(), default=0)

    @property
    def coord_dim(self):
        return self.coords.shape[1]

    def simplex_count(self, dim=None):
        if dim is None:
            return self.n_vertices + sum(len(r) for r in self.simplices.values())
        if dim == 0:
            return self.n_vertices
        return len(self.simplices.get(dim, ()))

    def domain_diameter(self):
        """Exact max pairwise vertex distance (chunked to bound memory).

        Computed once per instance; later calls return the cached value.
        """
        if self._diameter is None:
            pts = self.coords
            n = len(pts)
            best = 0.0
            step = max(1, 2_000_000 // max(n, 1))
            for lo in range(0, n, step):
                block = pts[lo : lo + step]
                d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                best = max(best, float(d2.max()))
            self._diameter = float(np.sqrt(best))
        return self._diameter

    def sweep_plan(self):
        """The sweep plan of `face_table` (`_core.sweep_plan`).

        Computed once per instance; later calls return the cached plan.
        """
        if self._plan is None:
            blocks, _, pair_a, pair_b = self.face_table
            self._plan = sweep_plan(blocks, pair_a, pair_b)
        return self._plan


@dataclass(frozen=True)
class ThickenedComplex:
    """A base complex crossed with per-vertex intervals [-r(v), +r(v)].

    complex: the staircase-triangulated thickening.
    base_index/offset: per thickened vertex, the base vertex index and the
        interval offset t (so the field value is f(base) + offset, exactly).
    """

    complex: SimplicialComplex
    base_index: np.ndarray
    offset: np.ndarray
    field: ScalarField


def _staircase_rows(base_rows, lo_layer, hi_layer):
    """Staircase simplices for the prisms over `base_rows` between two layers.

    Thickened vertex index convention: 3 * base_index + layer, with layer
    0 = lower, 1 = middle, 2 = upper.  Rows come out sorted ascending.
    """
    out = []
    d = base_rows.shape[1] - 1
    lo = 3 * base_rows + lo_layer
    hi = 3 * base_rows + hi_layer
    for j in range(d + 1):
        out.append(np.concatenate([lo[:, : j + 1], hi[:, j:]], axis=1))
    return out


def thickening_inputs(X, f, r_values):
    """Checked (field values, radii) arrays for thickening X by [-r(v), +r(v)].

    Raises ValidationError for a misaligned field, misaligned radii or radii
    that are not finite and positive, then GuardViolation for a base of
    dimension above MAX_BASE_DIM_FOR_THICKENING, in that order.
    """
    f_vals = np.asarray(f.values, dtype=np.float64)
    if len(f_vals) != X.n_vertices:
        raise ValidationError("field misaligned with complex")
    r = np.asarray(r_values, dtype=np.float64)
    if len(r) != X.n_vertices:
        raise ValidationError("smoothing radii misaligned with complex")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValidationError("smoothing radii must be finite and positive")
    if X.dim > MAX_BASE_DIM_FOR_THICKENING:
        raise GuardViolation(
            f"thickening needs base dimension <= {MAX_BASE_DIM_FOR_THICKENING}, got {X.dim}"
        )
    return f_vals, r


def constant_radii(X, eps):
    """The radius eps at every vertex of X; GuardViolation unless eps > 0."""
    eps = float(eps)
    if not np.isfinite(eps) or eps <= 0:
        raise GuardViolation("thickening width eps must be positive")
    return np.full(X.n_vertices, eps)


def thickened_vertices(X, f, r_values):
    """Checked three-layer vertex table of the thickening of X by [-r(v), +r(v)].

    Thickened vertex 3 i + layer lies over base vertex i at offset -r(i), 0 or
    +r(i) (layer 0, 1, 2).  Returns (base_index, offset, values) with values
    = f(base) + offset, one addition per thickened vertex.  The checks are
    those of `thickening_inputs`.
    """
    f_vals, r = thickening_inputs(X, f, r_values)
    base_index = np.repeat(np.arange(X.n_vertices, dtype=np.int64), 3)
    offset = np.zeros(3 * X.n_vertices, dtype=np.float64)
    offset[0::3] = -r
    offset[2::3] = r
    return base_index, offset, f_vals[base_index] + offset


def _thicken(X, f, r_values):
    base_index, offset, values = thickened_vertices(X, f, r_values)
    # coordinates: append the offset axis while it still fits in R^3
    coords = np.repeat(X.coords, 3, axis=0)
    if X.coord_dim <= 2:
        coords = np.concatenate([coords, offset[:, None]], axis=1)

    top = {}
    for rows in X.face_table[0]:
        # lower prism, then upper prism
        for prism in _staircase_rows(rows, 0, 1) + _staircase_rows(rows, 1, 2):
            top.setdefault(prism.shape[1] - 1, []).append(prism)
    thick = SimplicialComplex.build(
        np.arange(3 * X.n_vertices), coords, {d: np.concatenate(c) for d, c in top.items()}
    )
    return ThickenedComplex(
        complex=thick,
        base_index=base_index,
        offset=offset,
        field=ScalarField(values),
    )


def thicken_global(X, f, eps):
    """Thicken X by the constant interval [-eps, +eps]."""
    return _thicken(X, f, constant_radii(X, eps))


def thicken_local(X, f, r):
    """Thicken X by the varying interval [-r(v), +r(v)] per vertex column."""
    return _thicken(X, f, as_scalar_field(r).values)
