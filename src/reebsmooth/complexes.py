"""Simplicial complexes with piecewise-linear vertex fields, and prism thickenings.

A complex stores an id-sorted vertex table (integer ids, coordinates in R^k,
k <= 3) and, per dimension, a lexicographically sorted array of simplices as
vertex-index tuples.  Complexes are closed under taking faces.

The staircase thickening is the reference construction of a smoothing's
domain {(x, t) : |t| <= r(x)}.  It replaces each vertex column by three copies
at offsets (-r(v), 0, +r(v)) and triangulates every prism with the staircase
(Freudenthal style, vertex-index ordered) decomposition, which is
face-compatible across neighbouring simplices because it depends only on the
vertex order.  The thickened field is f(x) + t, computed as one addition per
thickened vertex.  Smoothing itself sweeps the base complex instead (see
`smoothing`) and shares only the input checks, `thickening_inputs` and
`constant_radii`; the interleaving maps and the tests use the thickening.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

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
    return arr.reshape(-1, dim + 1)


class SimplicialComplex:
    """Finite simplicial complex, dimension <= 3, with vertex coordinates.

    Parameters
    ----------
    vertex_ids : (n,) int array, strictly increasing (use `build` for raw input)
    coords : (n, k) float array, 1 <= k <= 3
    simplices : dict dim -> (m, dim+1) int array of vertex *indices*, rows
        sorted ascending within each row and lexicographically across rows.
        Dimension 0 is implied by the vertex table and must not be passed.
    """

    def __init__(self, vertex_ids, coords, simplices, validate=True):
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
        if validate:
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
        ids = np.array([int(i) for i, _ in items], dtype=np.int64)
        if len(np.unique(ids)) != len(ids):
            raise ValidationError("duplicate vertex ids")
        order = np.argsort(ids)
        ids = ids[order]
        coords = np.asarray([np.atleast_1d(items[i][1]) for i in order], dtype=np.float64)
        id_to_index = {int(v): i for i, v in enumerate(ids)}

        by_dim = {}
        for simplex in simplices:
            try:
                tup = tuple(sorted(id_to_index[int(v)] for v in simplex))
            except KeyError as exc:
                raise ValidationError(f"simplex references unknown vertex id {exc}") from None
            if len(set(tup)) != len(tup):
                raise ValidationError(f"degenerate simplex (repeated vertex): {tuple(simplex)}")
            d = len(tup) - 1
            if d > MAX_COMPLEX_DIM:
                raise ValidationError(f"simplex dimension {d} exceeds maximum {MAX_COMPLEX_DIM}")
            for k in range(1, d + 1):
                bucket = by_dim.setdefault(k, set())
                if k == d:
                    bucket.add(tup)
                else:
                    bucket.update(combinations(tup, k + 1))
        out = {}
        for d, bucket in by_dim.items():
            rows = np.array(sorted(bucket), dtype=np.int64)
            out[d] = rows
        return cls(ids, coords, out)

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

    def index_of(self, vertex_id):
        i = int(np.searchsorted(self.vertex_ids, vertex_id))
        if i >= len(self.vertex_ids) or self.vertex_ids[i] != vertex_id:
            raise ValidationError(f"unknown vertex id {vertex_id}")
        return i

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

    # -- validation ----------------------------------------------------------

    def validate(self):
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
        seen = {}
        for d, rows in sorted(self.simplices.items()):
            if d < 1 or d > MAX_COMPLEX_DIM:
                raise ValidationError(f"bad simplex dimension {d}")
            if rows.shape[1] != d + 1:
                raise ValidationError(f"dimension-{d} rows must have {d + 1} vertices")
            if len(rows) == 0:
                continue
            if rows.min() < 0 or rows.max() >= n:
                raise ValidationError("simplex references a missing vertex")
            if np.any(np.diff(rows, axis=1) <= 0):
                raise ValidationError("simplex tuples must be sorted ascending, no repeats")
            keys = [tuple(r) for r in rows]
            if len(set(keys)) != len(keys):
                raise ValidationError(f"duplicate dimension-{d} simplices")
            seen[d] = set(keys)
        # closure: every codim-1 face must be present
        for d, keys in sorted(seen.items(), reverse=True):
            if d == 1:
                continue
            lower = seen.get(d - 1, set())
            for key in keys:
                for face in combinations(key, d):
                    if face not in lower:
                        raise ValidationError(
                            f"complex not closed: face {face} of {key} missing"
                        )
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


def _thicken(X, f, r_values):
    f_vals, r = thickening_inputs(X, f, r_values)
    n = X.n_vertices
    base_index = np.repeat(np.arange(n, dtype=np.int64), 3)
    offset = np.zeros(3 * n, dtype=np.float64)
    offset[0::3] = -r
    offset[2::3] = r

    # coordinates: append the offset axis while it still fits in R^3
    if X.coord_dim <= 2:
        coords = np.concatenate(
            [np.repeat(X.coords, 3, axis=0), offset[:, None]], axis=1
        )
    else:
        coords = np.repeat(X.coords, 3, axis=0)

    new_ids = np.arange(3 * n, dtype=np.int64)

    top_rows = []
    vertex_rows = np.arange(n, dtype=np.int64)[:, None]
    for rows in [vertex_rows] + [X.simplices[d] for d in sorted(X.simplices)]:
        top_rows.extend(_staircase_rows(rows, 0, 1))  # lower prism
        top_rows.extend(_staircase_rows(rows, 1, 2))  # upper prism

    by_dim = {}
    for rows in top_rows:
        by_dim.setdefault(rows.shape[1] - 1, []).append(rows)
    closed = {}
    for d, chunks in by_dim.items():
        rows = np.concatenate(chunks, axis=0)
        # close under faces by explicit column deletion
        while True:
            rows = np.unique(rows, axis=0)
            existing = closed.get(d)
            closed[d] = rows if existing is None else np.unique(
                np.concatenate([existing, rows], axis=0), axis=0
            )
            if d == 1:
                break
            faces = [np.delete(rows, p, axis=1) for p in range(d + 1)]
            rows = np.concatenate(faces, axis=0)
            d -= 1

    thick = SimplicialComplex(new_ids, coords, closed)
    values = f_vals[base_index] + offset
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
    r_vals = r.values if isinstance(r, ScalarField) else np.asarray(r, dtype=np.float64)
    return _thicken(X, f, r_vals)
