"""Extended persistence of Reeb graphs and the bottleneck distance.

The diagram has three parts: ordinary dim-0 pairs from the upward sweep
(birth <= death), relative dim-1 pairs from the downward sweep
(birth >= death), and extended pairs: one dim-0 point (min, max) per
connected component plus one dim-1 point (top, bottom) per independent
loop.  Loop pairings come from the rank function of band subgraphs, whose
cycle-space dimension is just E - V + C.

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
DEFAULT_PROXY_FACTOR = 5.0


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

    def groups(self):
        keys = sorted({(p.dim, p.cls) for p in self.points})
        return {k: self.group(*k) for k in keys}

    def to_dict(self):
        return {
            "points": [
                {"birth": p.birth, "death": p.death, "dim": p.dim, "class": p.cls}
                for p in self.points
            ]
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            tuple(
                DiagramPoint(float(p["birth"]), float(p["death"]), int(p["dim"]), p["class"])
                for p in data["points"]
            )
        )


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


def extended_persistence(graph):
    """Extended persistence diagram of a Reeb graph's value function."""
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


def interleaving_lower_bound(g1, g2, proxy_factor=DEFAULT_PROXY_FACTOR):
    """A certified lower bound on the interleaving distance of two Reeb graphs.

    The bottleneck distance of extended persistence diagrams rises at most a
    fixed factor faster than the interleaving distance, so dividing by that
    factor gives a one-sided bound usable in stability checks.

    The default factor 5 is the Reeb-graph stability theorem of Botnan and
    Lesnick ("Algebraic stability of zigzag persistence modules", Algebr.
    Geom. Topol. 18, 2018), a corollary of their algebraic stability
    theorem for zigzag modules: the bottleneck distance between the extended
    persistence diagrams of two Reeb graphs is at most 5 times their
    interleaving distance.  It tightens the earlier bound of Bauer, Munch
    and Wang through the functional distortion distance.  A smaller factor
    needs a cited proof, or the bound stops being one-sided.
    """
    d1 = extended_persistence(g1)
    d2 = extended_persistence(g2)
    return bottleneck(d1, d2) / proxy_factor
