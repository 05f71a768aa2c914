"""The level/slab sweep, in numpy + scipy.

Input.  Levels are the ranks 0 .. n_levels-1.  Simplex s is active on the
levels min_rank[s] .. max_rank[s], its window, which lies in that range.
Pair i is a codim-1 incidence (pair_a[i], pair_b[i]) of global simplex
indices; it joins its two simplices wherever both are active.

Copies.  Simplex s has a copy on level t (key 2t) for min_rank <= t <=
max_rank, and a copy on the open slab between levels t and t+1 (slab t,
key 2t+1) for min_rank <= t < max_rank.  So its copies are the keys
2 min_rank .. 2 max_rank, and a pair's edges are the keys of the
intersection of its two windows.

Output: the pre-splice quotient skeleton.  Its nodes are the connected
components of each level, its arcs the connected components of each slab;
arc e runs from the node below it on level t to the node above it on level
t+1.

Canonical order.  This is the one place it is defined, and every
construction of the skeleton must reproduce it bit for bit.  Sort all
copies by (key, simplex).  A component is named by its first copy, so its
representative is its smallest simplex.  Nodes are numbered in the order of
their first copies: level ascending, then smallest simplex.  Arcs are
numbered the same way: slab ascending, then smallest simplex.  The result
is five int64 arrays (node_level, node_rep, arc_bottom, arc_top, arc_rep).
Node q lies on level node_level[q], and its smallest simplex is
node_rep[q].  Arc e runs from node arc_bottom[e] to node arc_top[e], and
its smallest simplex is arc_rep[e].  The Reeb graph (`reeb._finalize`)
keeps the nodes that are not regular in this order and lists its edges
sorted by (lower node, upper node).

Memory.  The levels are cut into consecutive blocks of at most
_BLOCK_COPIES copies; a single level with more copies is a block of its
own.  Each block is labelled by one connected-components call.  A pair's
edges in a block are copies of its cofacet, so there are at most
(dimension + 1) times as many edges as copies.  Working memory thus follows
the block size and the simplex and pair counts, plus the output itself,
however large the sum of the window lengths grows.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# The sweep has one implementation.  The name stays because run provenance
# (the benchmark's `provenance()`) reports it.
BACKEND = "pure"

# Copies labelled per connected-components call.  On the benchmark's inputs
# 4096 makes the sweep some 40% slower, while 16384 is barely faster and
# nearly doubles the sweep's peak allocation (1.0 to 1.9 MB).
_BLOCK_COPIES = 8192


def _window_keys(first, last, k0, k1):
    """Every key in [first, last] ∩ [k0, k1], item-major.

    Returns (item, key, offset): the copy of item i at key k sits at
    position offset[i] + k of the listing.
    """
    start = np.maximum(first, k0)
    count = np.minimum(last, k1) - start + 1
    item = np.flatnonzero(count > 0)
    count = count[item]
    offset = np.zeros(len(first), dtype=np.int64)
    offset[item] = np.cumsum(count) - count - start[item]
    keys = np.arange(count.sum()) - np.repeat(offset[item], count)
    return np.repeat(item, count), keys, offset


def _block_graph(offset, n, pair_first, pair_last, pair_a, pair_b, k0, k1):
    """The block's n copies as a CSR graph with one edge per pair copy."""
    pair, key, _ = _window_keys(pair_first, pair_last, k0, k1)
    ends = (offset[pair_a[pair]] + key, offset[pair_b[pair]] + key)
    return coo_matrix((np.ones(len(pair), dtype=bool), ends), shape=(n, n)).tocsr()


def _label_block(first, last, pair_first, pair_last, pair_a, pair_b, k0, k1):
    """Label the copies on the keys k0 .. k1 with one connected-components call.

    Returns (offset, labels, head).  The copy of simplex s at key k is copy
    offset[s] + k, and labels[c] is the component of copy c.  head[q] is the
    code (key - k0) * m + simplex, m the simplex count, of component q's
    first copy in canonical order.  The block's listings die with these calls, before the next
    block is listed.
    """
    m = len(first)
    simplex, key, offset = _window_keys(first, last, k0, k1)
    graph = _block_graph(offset, len(simplex), pair_first, pair_last, pair_a, pair_b, k0, k1)
    n_comp, labels = connected_components(graph, directed=False)
    head = np.full(n_comp, (k1 - k0 + 1) * m, dtype=np.int64)
    np.minimum.at(head, labels, (key - k0) * m + simplex)
    return offset, labels, head


def sweep_quotient(min_rank, max_rank, pair_a, pair_b, n_levels):
    first = 2 * np.asarray(min_rank, dtype=np.int64)
    last = 2 * np.asarray(max_rank, dtype=np.int64)
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    pair_first = np.maximum(first[pair_a], first[pair_b])
    pair_last = np.minimum(last[pair_a], last[pair_b])
    m = len(first)

    # copies per key, then copies on the keys below level t for t = 0 .. n_levels
    per_key = np.cumsum(
        np.bincount(first, minlength=2 * n_levels)
        - np.bincount(last + 1, minlength=2 * n_levels)[: 2 * n_levels]
    )
    below = np.concatenate([[0], np.cumsum(per_key)[1::2]])

    node_level, node_rep, arc_bottom, arc_top, arc_rep = [], [], [], [], []
    n_nodes = 0
    pending = np.empty(0, dtype=np.int64)  # reps of the last block's top slab
    t0 = 0
    while t0 < n_levels:
        t1 = int(np.searchsorted(below, below[t0] + _BLOCK_COPIES, side="right")) - 1
        t1 = max(t1, t0 + 1)
        k0, k1 = 2 * t0, 2 * t1 - 1
        t0 = t1

        offset, labels, head = _label_block(
            first, last, pair_first, pair_last, pair_a, pair_b, k0, k1
        )
        order = np.argsort(head)
        head_key, head_rep = np.divmod(head[order], m)
        head_key += k0
        on_level = head_key % 2 == 0
        comp_node = np.empty(len(head), dtype=np.int64)
        comp_node[order[on_level]] = n_nodes + np.arange(int(on_level.sum()))

        def node_at(rep, k):
            return comp_node[labels[offset[rep] + k]]

        if len(pending):
            arc_top[-1][-len(pending) :] = node_at(pending, k0)
        node_level.append(head_key[on_level] // 2)
        node_rep.append(head_rep[on_level])
        n_nodes += int(on_level.sum())

        slab_key, rep = head_key[~on_level], head_rep[~on_level]
        arc_rep.append(rep)
        arc_bottom.append(node_at(rep, slab_key - 1))
        inside = slab_key < k1
        top = np.empty(len(rep), dtype=np.int64)
        top[inside] = node_at(rep[inside], slab_key[inside] + 1)
        arc_top.append(top)
        pending = rep[~inside]

    def joined(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return tuple(joined(p) for p in (node_level, node_rep, arc_bottom, arc_top, arc_rep))
