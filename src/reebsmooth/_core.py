"""The level/slab sweep, in numpy + scipy.

Input.  Levels are the ranks 0 .. n_levels-1.  Simplex s is active on the
levels min_rank[s] .. max_rank[s], its window, which lies in that range.
Pair i is a codim-1 incidence (pair_a[i], pair_b[i]) of global simplex
indices, cofacet first as in a face table; it joins its two simplices
wherever both are active.

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

Contraction.  Most joins hold for a static reason, and the sweep takes
them out once per call.  A pair (c, f) is nested when f's window lies in
c's and c > f; in a face table a cofacet comes after its facets, and
windows formed from per-vertex ranks (the min and the max over a simplex's
vertices) nest every pair.  A nested f is joined to c at every key where f
is active.
  Tree.  Each simplex with a nested pair takes the cofacet of its first one
as its parent.  Parents have larger indices, so these tree pairs form a
forest; pointer jumping finds each simplex's root, whose window contains
its whole tree's.  So the copy of s at key k is joined to the copy of
root(s) at k: only root copies are graph nodes, and every other copy reads
its root's label.  A pair whose two roots coincide adds no join.
  Links.  Nor does an implied pair.  The static link graph of f has f's
nested pairs (c, f) as nodes; two of them, (c, f) and (c', f), are linked
when some T has nested pairs (T, c) and (T, c').  At a key where f is
active, each such c and T is active too (nesting), so c and c' are joined
there through pairs (T, c) whose facet c is larger than f.  So one pair
per link component joins that component to f, and the component of f's
tree pair needs none: the others are implied.  By induction downwards over
the facet index, each dropped pair joins two copies that the kept pairs
and the trees already join, so every label stays the same.  One
connected-components call over all nested pairs gives every link graph at
once.  With windows from per-vertex ranks on a 2-manifold, every vertex
link is connected, so every vertex-facet pair goes; what stays are the
triangles as roots and each edge's pairs beyond its first triangle.  Where
two triangles share only a vertex, one pair at that vertex stays and joins
them.
  Heads.  A component's representative is still its smallest simplex over
all copies, so node_rep and arc_rep do not change.  At a key where a
nested facet of s is active, that facet is smaller and joined to s, so s
is not the smallest there.  Heads therefore take the minimum over the
candidate copies only: the keys of each window that no nested facet's
window covers.

Memory.  The levels are cut into consecutive blocks of at most
_BLOCK_COPIES simplex copies; a single level with more copies is a block of
its own.  Each block lists its root copies, kept pair copies and candidate
copies as int32 and labels the root copies by one connected-components
call; a kept pair's copies are copies of its cofacet, so there are at most
(dimension + 1) times as many edges as copies.  Working memory thus follows
the block size and the simplex and pair counts, plus the output itself,
however large the sum of the window lengths grows.  On the benchmark's
inputs the sweep's tracemalloc peak is at most 0.5 MB on stability-smooth
and 0.9 MB on reeb-build, most of it reeb-build's output.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# The sweep has one implementation.  The name stays because run provenance
# (the benchmark's `provenance()`) reports it.
BACKEND = "pure"

# Simplex copies per block, that is per connected-components call.  On the
# benchmark's inputs 8192 makes the sweep some 45% slower, while 32768 is
# about 15% faster and raises the sweep's peak allocation from 0.9 to
# 1.3 MB.
_BLOCK_COPIES = 16384


def _offsets(first, last, k0, k1):
    """Where each item's copies on the keys k0 .. k1 sit in a block listing.

    Returns (item, count, offset): the items with a copy there, how many
    each has, and offset such that item i's copy at key k is offset[i] + k.
    Listings are int32: a block holds far fewer than 2**31 copies.
    """
    start = np.maximum(first, k0)
    count = np.minimum(last, k1) - start + 1
    item = np.flatnonzero(count > 0)
    count = count[item]
    offset = np.zeros(len(first), dtype=np.int32)
    offset[item] = np.cumsum(count) - count - start[item]
    return item.astype(np.int32), count, offset


def _window_keys(first, last, k0, k1):
    """Every key in [first, last] ∩ [k0, k1] as (item, key), item-major."""
    item, count, offset = _offsets(first, last, k0, k1)
    key = np.arange(count.sum(), dtype=np.int32)
    key -= np.repeat(offset[item], count)
    return np.repeat(item, count), key


def _components(n, a, b):
    """Connected components of the graph on n nodes with edges (a[i], b[i]).

    The CSR arrays are built directly, by one argsort of the edge tails.
    scipy does not check the column indices, so the endpoints are checked
    here: one outside 0 .. n-1 raises IndexError instead of corrupting memory.
    Viewed as unsigned, a negative endpoint is larger than any node, so one
    max per side is the whole check.
    """
    for ends in (a, b):
        if len(ends) and ends.view(f"u{ends.itemsize}").max() >= n:
            raise IndexError(f"edge endpoint outside the {n} graph nodes")
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    cols = b[np.argsort(a, kind="stable")].astype(np.int32, copy=False)
    graph = csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
    del cols
    return connected_components(graph, directed=False)


def _contract(first, last, pair_a, pair_b):
    """Roots, and the pairs that still need an edge in the block graphs.

    Returns (root, kept, nested): the root of every simplex in the forest of
    tree pairs; the pairs that are neither implied nor between two
    simplices with one root; and the nested pairs.
    """
    m = len(first)
    nested = np.flatnonzero(
        (pair_a > pair_b) & (first[pair_a] <= first[pair_b]) & (last[pair_b] <= last[pair_a])
    )
    cofacet, facet = pair_a[nested], pair_b[nested]
    # each facet's first nested pair is its tree pair
    child, tree = np.unique(facet, return_index=True)
    root = np.arange(m)
    root[child] = cofacet[tree]
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    tree_of = np.empty(m, dtype=np.int64)
    tree_of[child] = tree
    keep = root[pair_a] != root[pair_b]
    keep[nested[_implied(m, cofacet, facet, tree_of)]] = False
    return root, np.flatnonzero(keep), nested


def _implied(m, cofacet, facet, tree_of):
    """Which nested pairs (cofacet[i], facet[i]) their links imply.

    tree_of[f] is the position of f's tree pair among them.
    """
    # chains T > c > f of nested pairs (T, c) and (c, f), by position
    by_cofacet = np.argsort(cofacet, kind="stable")
    count = np.bincount(cofacet, minlength=m)
    start = np.cumsum(count) - count
    n_lower = count[facet]
    upper = np.repeat(np.arange(len(facet)), n_lower)
    lower = by_cofacet[
        np.arange(n_lower.sum()) - np.repeat(np.cumsum(n_lower) - n_lower - start[facet], n_lower)
    ]
    # the chains through one diamond (T, f) link their pairs (c, f)
    diamond = cofacet[upper] * m + facet[lower]
    order = np.argsort(diamond, kind="stable")
    same = diamond[order[1:]] == diamond[order[:-1]]
    _, comp = _components(len(facet), lower[order[1:]][same], lower[order[:-1]][same])
    # one pair per link component joins it to f; the tree pair's needs none
    implied = np.ones(len(facet), dtype=bool)
    implied[np.unique(comp, return_index=True)[1]] = False
    implied |= comp == comp[tree_of[facet]]
    return implied


def _head_candidates(first, last, cofacet, facet):
    """The keys of each window that no nested facet's window covers.

    Returns (simplex, first, last), one row per uncovered run of keys.
    """
    # per cofacet, in order of its facets' first keys, the last key covered
    # so far: a running maximum made segmented by adding owner * span
    order = np.lexsort((first[facet], cofacet))
    owner, lo, hi = cofacet[order], first[facet[order]], last[facet[order]]
    span = int(last.max()) + 2 if len(last) else 0
    reach = np.maximum.accumulate(hi + owner * span) - owner * span
    new = np.ones(len(owner), dtype=bool)
    new[1:] = owner[1:] != owner[:-1]
    end = np.roll(new, -1)
    covered = np.empty(len(owner), dtype=np.int64)
    covered[1:] = reach[:-1]
    covered[new] = first[owner[new]] - 1
    gap = covered + 1 < lo
    tail = reach[end] < last[owner[end]]
    alone = np.ones(len(first), dtype=bool)
    alone[owner] = False
    alone = np.flatnonzero(alone)
    return (
        np.concatenate([alone, owner[gap], owner[end][tail]]),
        np.concatenate([first[alone], covered[gap] + 1, reach[end][tail] + 1]),
        np.concatenate([last[alone], lo[gap] - 1, last[owner[end]][tail]]),
    )


def sweep_quotient(min_rank, max_rank, pair_a, pair_b, n_levels):
    first = 2 * np.asarray(min_rank, dtype=np.int64)
    last = 2 * np.asarray(max_rank, dtype=np.int64)
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    m = len(first)

    root, kept, nested = _contract(first, last, pair_a, pair_b)
    cand, cand_first, cand_last = _head_candidates(first, last, pair_a[nested], pair_b[nested])
    is_root = root == np.arange(m)
    root_first, root_last = first[is_root], last[is_root]
    # root-local index of each simplex's root
    local = (np.cumsum(is_root) - 1)[root]
    edge_a, edge_b = local[pair_a[kept]], local[pair_b[kept]]
    edge_first = np.maximum(first[pair_a[kept]], first[pair_b[kept]])
    edge_last = np.minimum(last[pair_a[kept]], last[pair_b[kept]])

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

        # root copies are the graph's nodes, kept pair copies its edges
        _, count, offset = _offsets(root_first, root_last, k0, k1)
        pair, key = _window_keys(edge_first, edge_last, k0, k1)
        n_comp, labels = _components(
            int(count.sum()), offset[edge_a[pair]] + key, offset[edge_b[pair]] + key
        )
        del pair, key
        # a component's head is its first copy; every copy reads its root's label
        item, key = _window_keys(cand_first, cand_last, k0, k1)
        simplex = cand[item]
        del item
        head = np.full(n_comp, (k1 - k0 + 1) * m, dtype=np.int64)
        code = (key - k0).astype(np.int64) * m + simplex
        np.minimum.at(head, labels[offset[local[simplex]] + key], code)
        del key, simplex, code

        order = np.argsort(head)
        head_key, head_rep = np.divmod(head[order], m)
        head_key += k0
        on_level = head_key % 2 == 0
        comp_node = np.empty(len(head), dtype=np.int64)
        comp_node[order[on_level]] = n_nodes + np.arange(int(on_level.sum()))

        def node_at(rep, k):
            return comp_node[labels[offset[local[rep]] + k]]

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
