"""Simplicial complexes with piecewise-linear vertex fields, and prism thickenings.

A complex stores an id-sorted vertex table (integer ids, coordinates in R^k,
k <= 3) and, per dimension, an array of simplices as vertex-index rows, each
row ascending and the rows strictly increasing in lexicographic order.
Complexes are closed under taking faces.  Validation checks all of this with
whole-array operations.  Its closure check looks every codim-1 face up one
dimension down, and the positions it finds are the complex's incidence table
(`SimplicialComplex.face_table`), which the sweeps in `reeb` read together
with its sweep plan (`SimplicialComplex.sweep_plan`, computed once).

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
    """One value in R^d (d in 1..3) per vertex, index aligned with a complex."""

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


def _as_index_rows(simplices, dim):
    arr = np.asarray(simplices, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, dim + 1), dtype=np.int64)
    return arr


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


def _close(by_dim):
    """Close ascending index rows under faces: dim -> lex-sorted unique rows.

    Runs top down, so each dimension is deduplicated once, together with the
    faces of the dimension above.
    """
    closed = {}
    faces = None
    for d in range(max(by_dim, default=0), 0, -1):
        chunks = [c for c in (by_dim.get(d), faces) if c is not None]
        if chunks:
            rows = np.concatenate(chunks)
            _, first = np.unique(_row_keys(rows), return_index=True)
            closed[d] = rows[first]
            faces = _faces(closed[d])
    return closed


class SimplicialComplex:
    """Finite simplicial complex, dimension <= 3, with vertex coordinates.

    Parameters
    ----------
    vertex_ids : (n,) int array, strictly increasing (use `build` for raw input)
    coords : (n, k) float array, 1 <= k <= 3
    simplices : dict dim -> (m, dim+1) int array of vertex *indices*, each
        row ascending and the rows strictly increasing in lexicographic order
        (both checked).  Dimension 0 is implied by the vertex table and must
        not be passed.

    Construction validates the complex and sets `face_table`, the global
    simplex enumeration (vertices first, then dimensions 1, 2, 3, each in row
    order) as a tuple (blocks, first_vertex, pair_a, pair_b): the per-dimension
    index-row arrays (an edge block even without edges), the smallest vertex
    index of each global simplex, and every (cofacet, facet) incidence as
    global indices, per dimension in "drop column p" order.
    """

    def __init__(self, vertex_ids, coords, simplices):
        self.vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords[:, None]
        self.coords = coords
        self.simplices = {
            int(d): _as_index_rows(rows, int(d)) for d, rows in simplices.items()
        }
        # drop empty dimensions for a canonical shape
        self.simplices = {d: r for d, r in self.simplices.items() if len(r)}
        self._diameter = None
        self._plan = None
        self.validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, vertices, simplices):
        """Build a closed complex from raw data.

        vertices: iterable of (id, coords) pairs; simplices: iterable of
        vertex-id tuples (any dimensions, any order).  All faces are added.
        """
        items = list(vertices)
        if not items:
            raise ValidationError("complex needs at least one vertex")
        try:
            ids = np.array([int(i) for i, _ in items], dtype=np.int64)
        except OverflowError:
            raise ValidationError("vertex ids must fit in 64 bits") from None
        if len(np.unique(ids)) != len(ids):
            raise ValidationError("duplicate vertex ids")
        order = np.argsort(ids)
        ids = ids[order]
        coords = np.asarray([np.atleast_1d(items[i][1]) for i in order], dtype=np.float64)
        by_size = {}
        for simplex in simplices:
            simplex = tuple(simplex)
            by_size.setdefault(len(simplex), []).append(simplex)
        by_dim = {}
        for size, given in sorted(by_size.items()):
            if size == 0:
                continue
            try:
                raw = np.array(given, dtype=np.int64)
            except OverflowError:
                raise ValidationError("simplex references an unknown vertex id") from None
            rows = np.searchsorted(ids, raw)
            unknown = ids[np.minimum(rows, len(ids) - 1)] != raw
            if np.any(unknown):
                raise ValidationError(f"simplex references unknown vertex id {raw[unknown][0]}")
            rows.sort(axis=1)
            repeated = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
            if np.any(repeated):
                bad = given[int(np.argmax(repeated))]
                raise ValidationError(f"degenerate simplex (repeated vertex): {bad}")
            d = size - 1
            if d > MAX_COMPLEX_DIM:
                raise ValidationError(f"simplex dimension {d} exceeds maximum {MAX_COMPLEX_DIM}")
            if d > 0:
                by_dim[d] = rows
        return cls(ids, coords, _close(by_dim))

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

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check every invariant in the class docstring, then set `face_table`."""
        ids = self.vertex_ids
        if ids.ndim != 1 or len(ids) == 0:
            raise ValidationError("complex needs at least one vertex")
        if np.any(np.diff(ids) <= 0):
            raise ValidationError("vertex ids must be strictly increasing (use build())")
        if self.coords.shape[0] != len(ids):
            raise ValidationError("coords misaligned with vertex table")
        if not (1 <= self.coords.shape[1] <= MAX_COORD_DIM):
            raise ValidationError(f"coordinates must live in R^k, 1 <= k <= {MAX_COORD_DIM}")
        if not np.all(np.isfinite(self.coords)):
            raise ValidationError("coordinates must be finite")
        n = len(ids)
        for d, rows in sorted(self.simplices.items()):
            if d < 1 or d > MAX_COMPLEX_DIM:
                raise ValidationError(f"bad simplex dimension {d}")
            if rows.ndim != 2 or rows.shape[1] != d + 1:
                raise ValidationError(f"dimension-{d} rows must have {d + 1} vertices")
            if rows.min() < 0 or rows.max() >= n:
                raise ValidationError("simplex references a missing vertex")
            if np.any(np.diff(rows, axis=1) <= 0):
                raise ValidationError("simplex tuples must be sorted ascending, no repeats")
            # each row minus the one before it, read at its first nonzero column
            step = np.diff(rows, axis=0)
            lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
            if np.any(lead == 0):
                raise ValidationError(f"duplicate dimension-{d} simplices")
            if np.any(lead < 0):
                raise ValidationError(f"dimension-{d} rows must increase in lexicographic order")
        # closure: every codim-1 face is a row one dimension down; where each
        # face sits there is the incidence table
        blocks = [np.arange(n, dtype=np.int64)[:, None]]
        for d in range(1, max(self.dim, 1) + 1):
            blocks.append(self.simplices.get(d, np.empty((0, d + 1), dtype=np.int64)))
        offsets = np.cumsum([0] + [len(b) for b in blocks])
        pair_a = [np.empty(0, dtype=np.int64)]
        pair_b = [np.empty(0, dtype=np.int64)]
        for i in range(1, len(blocks)):
            rows, faces = blocks[i], _faces(blocks[i])
            table, wanted = _row_keys(blocks[i - 1]), _row_keys(faces)
            pos = np.searchsorted(table, wanted)
            found = pos < len(table)
            found[found] = table[pos[found]] == wanted[found]
            if not np.all(found):
                j = int(np.argmin(found))
                raise ValidationError(
                    f"complex not closed: face {tuple(faces[j].tolist())} of "
                    f"{tuple(rows[j % len(rows)].tolist())} missing"
                )
            pair_a.append(np.tile(np.arange(offsets[i], offsets[i + 1]), i + 1))
            pair_b.append(offsets[i - 1] + pos)
        first_vertex = np.concatenate([b[:, 0] for b in blocks])
        pair_a, pair_b = np.concatenate(pair_a), np.concatenate(pair_b)
        self.face_table = (blocks, first_vertex, pair_a, pair_b)
        self._plan = None
        return True


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
    vertex_rows = np.arange(X.n_vertices, dtype=np.int64)[:, None]
    for rows in [vertex_rows] + [X.simplices[d] for d in sorted(X.simplices)]:
        # lower prism, then upper prism
        for prism in _staircase_rows(rows, 0, 1) + _staircase_rows(rows, 1, 2):
            top.setdefault(prism.shape[1] - 1, []).append(prism)
    closed = _close({d: np.concatenate(chunks) for d, chunks in top.items()})
    thick = SimplicialComplex(np.arange(3 * X.n_vertices, dtype=np.int64), coords, closed)
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
