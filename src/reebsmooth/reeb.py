"""Reeb graphs of piecewise-linear fields on simplicial complexes.

The construction sweeps the distinct vertex values w_1 < ... < w_k.  Level
sets at each w_t and on each open slab (w_t, w_{t+1}) are unions of convex
slices of active simplices (those whose vertex values bracket the level), so
their connected components are computed combinatorially from codim-1
incidences between active simplices.  Slab components carry no vertex value
inside the slab, hence are products over the slab and attach to exactly one
component of the level below and one above.  Nodes with exactly one incoming
and one outgoing arc are regular points of the quotient and get spliced away,
leaving the minimal multigraph with strictly monotone edges.

Plateaus (adjacent vertices sharing a value) collapse automatically: they lie
inside a single level component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _core
from ._core import _components, kept_levels, sweep_quotient, vertex_hulls
from .complexes import ScalarField, SimplicialComplex, as_scalar_field
from .errors import GuardViolation, ValidationError

ISO_MAX_NODES = 64


@dataclass(frozen=True)
class ReebGraph:
    """Quotient multigraph of a PL scalar field.

    node_values: (Q,) level of each node, ascending.
    node_reps: (Q,) a witness vertex id from the complex, per node (metadata).
    edges: (E, 2) node index pairs, value strictly increasing along each row.
    """

    node_values: np.ndarray
    node_reps: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.node_values, dtype=np.float64)
        reps = np.asarray(self.node_reps, dtype=np.int64)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "node_values", vals)
        object.__setattr__(self, "node_reps", reps)
        object.__setattr__(self, "edges", edges)
        if len(vals) == 0:
            raise ValidationError("a Reeb graph has at least one node")
        if len(edges) and (edges.min() < 0 or edges.max() >= len(vals)):
            raise ValidationError("edge references a missing node")
        if len(edges) and not np.all(vals[edges[:, 0]] < vals[edges[:, 1]]):
            raise ValidationError("edges must strictly increase in value")

    @property
    def n_nodes(self):
        return len(self.node_values)

    @property
    def n_edges(self):
        return len(self.edges)

    def down_degrees(self):
        return np.bincount(self.edges[:, 1], minlength=self.n_nodes)

    def up_degrees(self):
        return np.bincount(self.edges[:, 0], minlength=self.n_nodes)

    def component_count(self):
        return int(_components(self.n_nodes, self.edges[:, 0], self.edges[:, 1])[0])

    def betti1(self):
        """First Betti number: independent loops of the graph."""
        return self.n_edges - self.n_nodes + self.component_count()

    def level_multiplicity(self, c):
        """Points of the quotient at level c: nodes at c plus edges across c."""
        c = float(c)
        at = int(np.count_nonzero(self.node_values == c))
        lo = self.node_values[self.edges[:, 0]]
        hi = self.node_values[self.edges[:, 1]]
        return at + int(np.count_nonzero((lo < c) & (c < hi)))

    def to_dict(self):
        return {
            "nodes": [
                {"id": i, "value": float(v), "witness_vertex": int(r)}
                for i, (v, r) in enumerate(zip(self.node_values, self.node_reps))
            ],
            "edges": [[int(a), int(b)] for a, b in self.edges],
        }

    @classmethod
    def from_dict(cls, data):
        nodes = data["nodes"]
        vals = np.array([n["value"] for n in nodes], dtype=np.float64)
        reps = np.array([n.get("witness_vertex", -1) for n in nodes], dtype=np.int64)
        edges = np.array(data.get("edges", []), dtype=np.int64).reshape(-1, 2)
        return cls(vals, reps, edges)


# -- construction -------------------------------------------------------------


def reeb_graph(X, f):
    """Reeb graph of the PL field f on the complex X.

    Exact on the given float values: no perturbation, ties and plateaus are
    handled by the grouped-level sweep.
    """
    values = _field_values(X, f)
    return window_reeb_graph(X, values, values)


def _field_values(X, f):
    """The values of the scalar field f, checked to be one per vertex of X."""
    values = as_scalar_field(f).values
    if len(values) != X.n_vertices:
        raise ValidationError("field length does not match vertex count")
    return values


def window_reeb_graph(X, lo, hi):
    """Quotient of the sweep in which simplex s is active on [min_s lo, max_s hi].

    lo and hi are per-vertex values, lo <= hi at every vertex; the levels
    are their distinct values.
    With lo = hi = f this is the Reeb graph of f.  With lo = f - r and
    hi = f + r it is the Reeb graph of f + t on the thickening
    {(x, t) : |t| <= r(x)}: the prism over each base simplex is convex, and
    f + t is linear on it, so its level and slab slices are convex and
    nonempty exactly on that window.
    """
    if np.any(lo > hi):
        raise ValidationError("a window's lo value exceeds its hi value")
    blocks, first_vertex, pair_a, pair_b = X.face_table
    plan = X.sweep_plan()
    levels = np.unique(lo if hi is lo else np.concatenate([lo, hi]))
    lo_rank = np.searchsorted(levels, lo)
    hi_rank = lo_rank if hi is lo else np.searchsorted(levels, hi)
    min_rank, max_rank = vertex_hulls(blocks, lo_rank, hi_rank)

    # sweep only the levels that can hold a node, unless every copy of the
    # sweep over all levels fits in one block anyway
    if (2 * (max_rank - min_rank) + 1).sum() <= _core._BLOCK_COPIES:
        keep = np.ones(len(levels), dtype=bool)
    else:
        keep = kept_levels(plan, lo_rank, hi_rank, min_rank, max_rank, len(levels))
    # kept level i is key 2i, a level between kept levels i - 1 and i slab key 2i - 1
    n_kept = np.cumsum(keep)
    key = 2 * n_kept - 1 - keep
    node_level, node_rep, arc_bottom, arc_top, arc_rep = sweep_quotient(
        key[min_rank], key[max_rank], pair_a, pair_b, int(n_kept[-1]), plan=plan
    )
    return _finalize(
        levels[keep][node_level],
        X.vertex_ids[first_vertex[node_rep]],
        arc_bottom,
        arc_top,
    )


def _finalize(node_values, node_witness, arc_bottom, arc_top):
    """Splice regular nodes (one arc in, one arc out) out of the skeleton."""
    q = len(node_values)
    up = np.bincount(arc_bottom, minlength=q) if len(arc_bottom) else np.zeros(q, int)
    down = np.bincount(arc_top, minlength=q) if len(arc_top) else np.zeros(q, int)
    regular = (up == 1) & (down == 1)

    # end[u]: the first non-regular node at or above u along its chain of
    # regular nodes, found by pointer jumping (chains rise, so they end)
    end = np.arange(q)
    up_arc_of = np.empty(q, dtype=np.int64)
    up_arc_of[arc_bottom] = np.arange(len(arc_bottom))
    end[regular] = arc_top[up_arc_of[regular]]
    while np.any(regular[end]):
        end = end[end]

    keep = ~regular
    new_id = np.cumsum(keep) - 1
    from_kept = keep[arc_bottom]  # arcs from a regular node lie inside a chain
    edges = np.stack([new_id[arc_bottom[from_kept]], new_id[end[arc_top[from_kept]]]], axis=1)
    if len(edges):
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
    return ReebGraph(node_values[keep], node_witness[keep], edges)


# -- direct level-set components ----------------------------------------------


def level_components(X, f, c):
    """Connected components of the level set {f = c}, straight from simplices.

    Returns (count, active, labels): the active simplex indices (global
    enumeration, ascending) and a component label per active simplex.
    Independent of the sweep's levels, windows and contraction: one value,
    one connectivity pass.
    """
    values = _field_values(X, f)
    blocks, _, pair_a, pair_b = X.face_table
    vmin, vmax = vertex_hulls(blocks, values, values)
    c = float(c)
    active = np.where((vmin <= c) & (vmax >= c))[0]
    pm = (np.maximum(vmin[pair_a], vmin[pair_b]) <= c) & (
        np.minimum(vmax[pair_a], vmax[pair_b]) >= c
    )
    a = np.searchsorted(active, pair_a[pm])
    b = np.searchsorted(active, pair_b[pm])
    count, labels = _components(len(active), a, b)
    return int(count), active, labels.astype(np.int64)


# -- graph isomorphism ---------------------------------------------------------


def is_isomorphic(g1, g2, value_tol=1e-9):
    """Value-respecting multigraph isomorphism (small graphs only).

    Nodes may only map to nodes whose value differs by at most value_tol and
    whose (down, up) degrees match; edge multiplicities must agree.  Uses
    backtracking, guarded to ISO_MAX_NODES nodes.  Serves the monotone
    invariance statement (acceptance criterion C08).
    """
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return False
    n = g1.n_nodes
    if n > ISO_MAX_NODES:
        raise GuardViolation(f"isomorphism test limited to {ISO_MAX_NODES} nodes")
    if np.any(np.abs(np.sort(g1.node_values) - np.sort(g2.node_values)) > value_tol):
        return False
    d1 = list(zip(g1.down_degrees(), g1.up_degrees()))
    d2 = list(zip(g2.down_degrees(), g2.up_degrees()))
    if sorted(d1) != sorted(d2):
        return False

    def mult(g):
        out = {}
        for a, b in g.edges:
            out[(int(a), int(b))] = out.get((int(a), int(b)), 0) + 1
        return out

    m1, m2 = mult(g1), mult(g2)
    neigh1 = {i: [] for i in range(n)}
    for (a, b), k in m1.items():
        neigh1[a].append((b, k, True))
        neigh1[b].append((a, k, False))

    order = sorted(range(n), key=lambda i: (g1.node_values[i], d1[i]))
    assign = [-1] * n
    used = [False] * n

    def feasible(u, v):
        if abs(g1.node_values[u] - g2.node_values[v]) > value_tol:
            return False
        if d1[u] != d2[v]:
            return False
        for w, k, upward in neigh1[u]:
            if assign[w] == -1:
                continue
            key = (v, assign[w]) if upward else (assign[w], v)
            if m2.get(key, 0) != k:
                return False
        return True

    def solve(pos):
        if pos == n:
            return True
        u = order[pos]
        for v in range(n):
            if used[v] or not feasible(u, v):
                continue
            assign[u] = v
            used[v] = True
            if solve(pos + 1):
                return True
            assign[u] = -1
            used[v] = False
        return False

    return solve(0)


def realize_as_complex(graph):
    """A Reeb graph as a 1-complex with its values as the field.

    Every arc gets a midpoint vertex so parallel arcs stay distinct simplices.
    Coordinates are the 1-d values (geometry only matters for measures, which
    graph smoothing does not use).  Returns (complex, field).
    """
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    mid = graph.n_nodes + np.arange(len(u))
    vals = np.r_[graph.node_values, (graph.node_values[u] + graph.node_values[v]) / 2.0]
    halves = np.concatenate([np.stack([u, mid], axis=1), np.stack([mid, v], axis=1)])
    X = SimplicialComplex.build(np.arange(len(vals)), vals, {1: halves})
    return X, ScalarField(vals)
