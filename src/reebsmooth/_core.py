"""The level/slab sweep, in numpy + scipy.

Given activity windows (in level ranks) for every simplex and every codim-1
incidence pair, produce the pre-splice quotient skeleton.

Nodes are the connected components of each level (rank t active window
min <= t <= max), arcs the components of each open slab between consecutive
levels (simplices with min <= t and max >= t+1).  Component numbering is
canonical: first occurrence in ascending simplex order, levels ascending,
each slab's arcs after its bottom level.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# The sweep has one implementation.  The name stays because run provenance
# (the benchmark's `provenance()`) reports it.
BACKEND = "pure"


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


def sweep_quotient(min_rank, max_rank, pair_a, pair_b, n_levels):
    min_rank = np.ascontiguousarray(min_rank, dtype=np.int64)
    max_rank = np.ascontiguousarray(max_rank, dtype=np.int64)
    pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
    pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
    m = len(min_rank)
    if len(pair_a):
        # pair window is the intersection of the endpoint windows (equals the
        # face's window since one endpoint is a face of the other)
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
