"""Extended persistence of Reeb graphs and the bottleneck distance.

The diagram has three parts: ordinary dim-0 pairs of the ascending
filtration (birth <= death), relative dim-1 pairs of the descending one
(birth >= death), and extended pairs: one dim-0 point (min, max) per
connected component plus one dim-1 point (top, bottom) per independent
loop.  All three come from one reduction of the extended filtration: the
ascending filtration of the graph followed by the descending filtration of
its cone, relative to the graph (Cohen-Steiner, Edelsbrunner and Harer,
"Extending persistence using Poincare and Lefschetz duality", Found.
Comput. Math. 9, 2009).  The coned filtration has 2(V + E) + 1 cells.

Bottleneck distances match points only within the same (dim, class) group;
unmatched points pay half their persistence (distance to the diagonal in
the sup norm).  A fixed fraction of the bottleneck distance lower-bounds
the interleaving distance between the graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardViolation, ValidationError

BOTTLENECK_MAX_POINTS = 128
PROXY_FACTOR = 5.0  # see interleaving_lower_bound


@dataclass(frozen=True)
class DiagramPoint:
    birth: float
    death: float
    dim: int
    cls: str

    def persistence(self):
        return abs(self.death - self.birth)


@dataclass(frozen=True)
class PersistenceDiagram:
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        for p in pts:
            if p.cls not in ("ordinary", "relative", "extended"):
                raise ValidationError(f"unknown diagram class {p.cls!r}")

    def group(self, dim, cls):
        return [p for p in self.points if p.dim == dim and p.cls == cls]


def extended_persistence(graph):
    """Extended persistence diagram of a Reeb graph's value function.

    One Z/2 column reduction of the coned extended filtration.  The cone
    vertex w comes first.  The ascending half follows: nodes by (value,
    index), each edge at its upper value right after its upper node.  Then
    the descending half: cone edges wv by (-value, index), each cone triangle
    we at its lower value right after wa.  A column is an int bitset over
    cell positions, so adding one column to another is one XOR.
    """
    vals = graph.node_values.tolist()
    edges = graph.edges.tolist()
    by_upper = [[] for _ in vals]
    by_lower = [[] for _ in vals]
    for i, (a, b) in enumerate(edges):
        by_upper[b].append(i)
        by_lower[a].append(i)

    value, dim, column = [None], [0], [0]  # the cone vertex w has no boundary

    def cell(val, d, faces):
        value.append(val)
        dim.append(d)
        column.append(sum(1 << f for f in faces))
        return len(column) - 1

    node_cell, edge_cell, cone_cell = [0] * len(vals), [0] * len(edges), [0] * len(vals)
    for v in sorted(range(len(vals)), key=lambda v: (vals[v], v)):
        node_cell[v] = cell(vals[v], 0, ())
        for i in by_upper[v]:
            a, b = edges[i]
            edge_cell[i] = cell(vals[v], 1, (node_cell[a], node_cell[b]))
    n_up = len(column)
    for v in sorted(range(len(vals)), key=lambda v: (-vals[v], v)):
        cone_cell[v] = cell(vals[v], 1, (0, node_cell[v]))
        for i in by_lower[v]:
            a, b = edges[i]
            cell(vals[v], 2, (edge_cell[i], cone_cell[a], cone_cell[b]))

    # a pair inside the ascending half is ordinary, inside the cone relative,
    # and across the two extended; its dim is the dim of the creating cell
    reduced = {}
    points = []
    for j, col in enumerate(column):
        while col and (low := col.bit_length() - 1) in reduced:
            col ^= reduced[low]
        if not col:
            continue
        reduced[low] = col
        cls = "ordinary" if j < n_up else "relative" if low >= n_up else "extended"
        if cls == "extended" or value[low] != value[j]:
            points.append(DiagramPoint(float(value[low]), float(value[j]), dim[low], cls))
    return PersistenceDiagram(tuple(points))


# -- bottleneck ----------------------------------------------------------------


def _feasible(c1, c2, cross, half1, half2, radius):
    """Perfect matching test: points pair within `radius` or retire to the
    diagonal when their half-persistence allows it."""
    n1, n2 = len(c1), len(c2)
    size = n1 + n2
    adj = [[] for _ in range(size)]
    for i in range(n1):
        for j in range(n2):
            if cross[i, j] <= radius:
                adj[i].append(j)
        if half1[i] <= radius:
            adj[i].append(n2 + i)
    for j in range(n2):
        # diagonal proxies on the left: j-th proxy matches point j or any left proxy slot
        if half2[j] <= radius:
            adj[n1 + j].append(j)
        for i in range(n1):
            adj[n1 + j].append(n2 + i)

    match_right = [-1] * size

    def augment(u, seen):
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    matched = 0
    for u in range(size):
        seen = [False] * size
        if augment(u, seen):
            matched += 1
    return matched == size


def _group_bottleneck(p1, p2):
    if not p1 and not p2:
        return 0.0
    c1 = np.array([(p.birth, p.death) for p in p1], dtype=np.float64).reshape(-1, 2)
    c2 = np.array([(p.birth, p.death) for p in p2], dtype=np.float64).reshape(-1, 2)
    half1 = np.array([p.persistence() / 2.0 for p in p1])
    half2 = np.array([p.persistence() / 2.0 for p in p2])
    if len(c1) and len(c2):
        cross = np.abs(c1[:, None, :] - c2[None, :, :]).max(axis=2)
    else:
        cross = np.zeros((len(c1), len(c2)))
    candidates = np.unique(np.concatenate([[0.0], cross.ravel(), half1, half2]))
    lo, hi = 0, len(candidates) - 1
    # the largest candidate is always feasible (everything within reach)
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(c1, c2, cross, half1, half2, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def bottleneck(d1, d2):
    """Bottleneck distance between diagrams, classwise; exact for small inputs."""
    if len(d1.points) > BOTTLENECK_MAX_POINTS or len(d2.points) > BOTTLENECK_MAX_POINTS:
        raise GuardViolation(
            f"bottleneck limited to {BOTTLENECK_MAX_POINTS} points per diagram"
        )
    keys = sorted({(p.dim, p.cls) for p in d1.points} | {(p.dim, p.cls) for p in d2.points})
    return max(
        (_group_bottleneck(d1.group(*k), d2.group(*k)) for k in keys),
        default=0.0,
    )


def interleaving_lower_bound(g1, g2):
    """A certified lower bound on the interleaving distance of two Reeb graphs.

    The bottleneck distance of extended persistence diagrams rises at most a
    fixed factor faster than the interleaving distance, so dividing by that
    factor gives a one-sided bound usable in stability checks.

    The factor PROXY_FACTOR = 5 is the Reeb-graph stability theorem of
    Botnan and Lesnick ("Algebraic stability of zigzag persistence modules",
    Algebr. Geom. Topol. 18, 2018), a corollary of their algebraic stability
    theorem for zigzag modules: the bottleneck distance between the extended
    persistence diagrams of two Reeb graphs is at most 5 times their
    interleaving distance.  It tightens the earlier bound of Bauer, Munch
    and Wang through the functional distortion distance.  A smaller factor
    needs a cited proof, or the bound stops being one-sided.
    """
    d1 = extended_persistence(g1)
    d2 = extended_persistence(g2)
    return bottleneck(d1, d2) / PROXY_FACTOR
