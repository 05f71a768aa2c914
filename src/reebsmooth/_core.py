"""The level/slab sweep, in numpy + scipy.

Input.  Keys 0 .. 2 n_levels - 2 sweep the levels and the open slabs
between them: key 2t is level t, key 2t + 1 the slab between levels t and
t + 1.  Simplex s is active on the keys first[s] .. last[s], its window;
either end may be a slab key.  Each window is the hull of its vertices'
windows (`vertex_hulls`), as in every sweep of this library (a local
smoothing is the Reeb graph of f + t on {|t| <= r(x)}); the sweep checks
it.  Pair i is a codim-1 incidence (pair_a[i], pair_b[i]) of global simplex
indices, cofacet first as in a face table; it joins its two simplices on
every key where both are active.

Copies.  Simplex s has a copy on each key of its window, so a pair's edges
are the keys of the intersection of its two windows.  A window of ranks
t .. u is the keys 2t .. 2u, and windows of that form sweep every level;
`reeb.window_reeb_graph` also merges the levels that hold no node into
slabs (Merged slabs, below).

Output: the pre-splice quotient skeleton.  Its nodes are the connected
components of each level, its arcs the connected components of each slab;
arc e on slab key k runs from the node below it on level key k - 1 to the
node above it on level key k + 1.

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
them out before it labels anything.  Every pair (c, f) is nested: c > f,
since a face table lists a cofacet after its facets, and f's window lies
in c's, since f's vertices are among c's and the windows are their hulls.
So f is joined to c at every key where f is active.
  Tree.  Each facet takes the cofacet of its first pair as its parent.
Parents have larger indices, so these tree pairs form a forest; pointer
jumping finds each simplex's root, whose window contains its whole tree's.
So the copy of s at key k is joined to the copy of root(s) at k: only root
copies are graph nodes, and every other copy reads its root's label.  A
pair whose two roots coincide adds no join.
  Links.  Nor does an implied pair.  The static link graph of f has f's
pairs (c, f) as nodes; two of them, (c, f) and (c', f), are linked when
some T has pairs (T, c) and (T, c').  At a key where f is active, each
such c and T is active too (nesting), so c and c' are joined there through
pairs (T, c) whose facet c is larger than f.  So one pair per link
component joins that component to f, and the component of f's tree pair
needs none: the others are implied.  By induction downwards over the facet
index, each dropped pair joins two copies that the kept pairs and the
trees already join, so every label stays the same.  One
connected-components call over all pairs gives every link graph at once.
On a 2-manifold every vertex link is connected, so every vertex-facet pair
goes; what stays are the triangles as roots and each edge's pairs beyond
its first triangle.  Where two triangles share only a vertex, one pair at
that vertex stays and joins them.
  Heads.  A component's representative is still its smallest simplex over
all copies, so node_rep and arc_rep do not change.  At a key where a
facet of s is active, that facet is smaller and joined to s, so s is not
the smallest there.  Heads therefore take the minimum over the candidate
copies only: the keys of each window that no facet's window covers.  These
are each vertex's whole window and each edge's keys strictly between its
two vertices' windows.  A simplex s of dimension 2 or more has none: take
a vertex u of s with the smallest first key and a vertex w with the
largest last key; s has three vertices or more, so some facet holds both u
and w, and that facet's window is s's whole window.
  Plan.  The contraction depends on the face table alone, so `sweep_plan`
computes it once and `SimplicialComplex.sweep_plan` caches it.  A sweep
checks its windows and finds its head candidates from the face table's
vertex rows (blocks), which the plan holds.  The plan also holds what the
level test below reads: the star incidences (v, s), one per vertex v of
each simplex s; and the star pairs, one per pair (c, f) and vertex v of f,
as the incidences (v, c) and (v, f).

Kept levels.  Let vertex v have ranks lo(v) <= hi(v), so that simplex s is
active on the levels min lo .. max hi over its vertices, and let t be an
event of v when t is lo(v) or hi(v).  `kept_levels` keeps level t when
  (a) t = lo(v) and the simplices of star(v) with min rank < t do not form
      exactly one component, joined by the star pairs of v between two of
      them;
  (b) t = hi(v) and the mirror test, with max rank > t, says the same; or
  (c) some edge has an event at t at both ends (ties and plateaus).
This is the lower/upper-link criticality test of Harvey, Wang and Wenger
(SoCG 2010) and of Doraiswamy and Natarajan (TVCG 2012), stated in the
sweep's own join graph.  Every node on a level t not kept is regular: its
level component N meets exactly one component of the slab below and one
of the slab above.
  Proof.  Let A be the simplices active at t with min rank < t.  They are
the ones active on the slab below, and a pair joins two of them there
exactly when it joins them at t, so N's arcs down are the components of
N ∩ A.  A simplex s' of N outside A has min rank t, so it has a vertex v
with lo(v) = t, and by (c) no other vertex with an event at t: call v its
event vertex.  All of star(v) is active at t (min lo <= lo(v) <= hi(v) <=
max hi) and joined at t to v through its faces that contain v, so N holds
star(v) ∩ A, which by (a) is one nonempty component: N ∩ A is not empty.
Now take a path in N between two simplices of A.  Where it steps between s
in A and s' outside A, s' is the facet, because a facet's min rank is at
least its cofacet's; so s holds the event vertex v of s' and lies in
star(v) ∩ A.  Two consecutive simplices outside A have one event vertex,
since the facet's lies in the cofacet, which has only one.  So each run of
the path outside A begins and ends in star(v) ∩ A for a single v, and by
(a) a path inside star(v) ∩ A, joined by star pairs, replaces it: N ∩ A is
connected.  The mirror argument with max rank > t and (b) gives the one
arc up.  The first and the last level are always kept, since nothing is
active below the first or above the last.
  Merged slabs.  `reeb.window_reeb_graph` maps kept level i (counting kept
levels from 0) to key 2i and every level between kept levels i - 1 and i
to slab key 2i - 1.  The map is monotone, so hulls stay hulls and a pair
is active on its facet's window, as before.  The copies on slab key 2i - 1
are the simplices active somewhere strictly between the two kept levels,
and a pair joins two of them exactly when both are active on one level or
slab there; so its components are the connected unions of the components
of those levels and slabs.  All the nodes there are regular, so each union
is a chain from one component of the slab just above kept level i - 1 to
one of the slab just below kept level i.  Each chain becomes one arc,
which removes only regular nodes; the components of the kept levels, their
order and representatives, and the degrees of their nodes do not change.
So `reeb._finalize` gives the same graph, bit for bit.
  Arc ends.  A merged slab's smallest simplex may start or end inside it,
so an arc's bottom is read from a root copy on the slab whose window
reaches the key below, and its top from one whose window reaches the key
above.  Such a copy lies in the chain's first (last) slab component, so
every choice gives the same node.  A slab component with no such copy (in
windows that start or end on a slab key beyond every level) raises
ValueError; the sweep never reads a label outside a root's own copies.
  One block.  When every copy of the sweep over all levels fits in one
block (below), `window_reeb_graph` keeps every level: the sweep is one
labeling call already, and the test would cost more than it saves.

Memory.  The levels are cut into consecutive blocks of at most
_BLOCK_COPIES simplex copies; a single level with more copies is a block of
its own.  Each block lists its root copies, kept pair copies and candidate
copies as int32 and labels the root copies by one connected-components
call; a kept pair's copies are copies of its cofacet, so there are at most
(dimension + 1) times as many edges as copies.  Working memory thus follows
the block size and the simplex and pair counts, plus the output itself,
however large the sum of the window lengths grows.  On the benchmark's
inputs the sweep's tracemalloc peak is at most 0.3 MB on stability-smooth
and 0.7 MB on reeb-build, most of it reeb-build's output.
"""

from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# The sweep has one implementation.  The name stays because run provenance
# (the benchmark's `provenance()`) reports it.
BACKEND = "pure"

# Simplex copies per block, that is per connected-components call, and the
# size below which `reeb.window_reeb_graph` keeps every level.  On the
# benchmark's inputs 8192 makes reeb-build's sweeps some 35% slower.  32768
# makes them some 8% faster but stability-smooth's some 15% slower (more of
# its sweeps keep every level), and raises the sweep's tracemalloc peak from
# 0.7 to 1.1 MB.
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


def _contract(m, pair_a, pair_b):
    """Roots, and the pairs that still need an edge in the block graphs.

    m is the number of simplices.  Returns (roots, local, kept): the
    simplices that are roots of the forest of tree pairs, the root-local
    index of each simplex's root, and the pairs that are neither implied nor
    between two simplices with one root.
    """
    # each facet's first pair is its tree pair
    child, tree = np.unique(pair_b, return_index=True)
    root = np.arange(m)
    root[child] = pair_a[tree]
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    tree_of = np.empty(m, dtype=np.int64)
    tree_of[child] = tree
    keep = root[pair_a] != root[pair_b]
    keep[_implied(m, pair_a, pair_b, tree_of)] = False
    is_root = root == np.arange(m)
    return np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[root], np.flatnonzero(keep)


def _implied(m, cofacet, facet, tree_of):
    """Which pairs (cofacet[i], facet[i]) their links imply.

    tree_of[f] is the position of f's tree pair among them.
    """
    # chains T > c > f of pairs (T, c) and (c, f), by position
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


def vertex_hulls(blocks, lo, hi):
    """Per global simplex, the min of lo and the max of hi over its vertices.

    blocks are a face table's per-dimension vertex rows; lo and hi are read
    at vertex indices only.
    """
    # rows are 1 to 4 wide, and numpy reduces such narrow rows far slower
    # than it takes elementwise minima and maxima of their columns
    vmin, vmax = [], []
    for b in blocks:
        first, *rest = b.T
        low, high = lo[first], hi[first]
        for col in rest:
            low = np.minimum(low, lo[col])
            high = np.maximum(high, hi[col])
        vmin.append(low)
        vmax.append(high)
    return np.concatenate(vmin), np.concatenate(vmax)


def _head_candidates(first, last, blocks):
    """The keys of each window that no facet's window covers (see Heads).

    Returns (simplex, first, last), one row per uncovered run of keys: each
    vertex on its whole window, and each edge on the keys strictly between
    its two vertices' windows.
    """
    n = len(blocks[0])
    u, w = blocks[1].T
    gap_first = np.minimum(last[u], last[w]) + 1
    gap_last = np.maximum(first[u], first[w]) - 1
    gap = np.flatnonzero(gap_first <= gap_last)
    return (
        np.concatenate([np.arange(n), n + gap]),
        np.concatenate([first[:n], gap_first[gap]]),
        np.concatenate([last[:n], gap_last[gap]]),
    )


class SweepPlan(NamedTuple):
    """What a sweep reads of a face table besides the windows (see Plan)."""

    roots: np.ndarray
    local: np.ndarray
    kept: np.ndarray
    star_vertex: np.ndarray
    star_simplex: np.ndarray
    star_cofacet: np.ndarray
    star_facet: np.ndarray
    blocks: list


def sweep_plan(blocks, pair_a, pair_b):
    """The sweep plan of a face table (`SimplicialComplex.face_table`).

    blocks are its per-dimension vertex rows, and pair_a, pair_b its pairs,
    per dimension in "drop column p" order.
    """
    sizes = [len(b) for b in blocks]
    start = np.cumsum([0] + sizes)
    roots, local, kept = _contract(start[-1], pair_a, pair_b)
    # star incidence star_at[d] + q * sizes[d] + j pairs the vertex in column
    # q of row j of dimension d with that simplex
    star_at = np.cumsum([0] + [b.size for b in blocks])
    star_vertex = np.concatenate([b.T.ravel() for b in blocks])
    star_simplex = np.concatenate(
        [np.tile(np.arange(start[d], start[d + 1]), b.shape[1]) for d, b in enumerate(blocks)]
    )
    star_cofacet, star_facet = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    at = 0
    for d in range(1, len(blocks)):
        # pair p * m + j drops column p of row j; facet column q is the
        # cofacet's column q, or q + 1 from column p on
        m = sizes[d]
        facet = (pair_b[at : at + (d + 1) * m] - start[d - 1]).reshape(d + 1, 1, m)
        at += (d + 1) * m
        q = np.arange(d)[:, None]
        q_cofacet = q + (q >= np.arange(d + 1)[:, None, None])
        star_cofacet.append((star_at[d] + q_cofacet * m + np.arange(m)).ravel())
        star_facet.append((star_at[d - 1] + q * sizes[d - 1] + facet).ravel())
    return SweepPlan(
        roots,
        local,
        kept,
        star_vertex,
        star_simplex,
        np.concatenate(star_cofacet),
        np.concatenate(star_facet),
        blocks,
    )


def kept_levels(plan, lo_rank, hi_rank, min_rank, max_rank, n_levels):
    """The levels that the static test keeps, as a mask (see Kept levels).

    lo_rank and hi_rank are per vertex, with lo_rank <= hi_rank; min_rank
    and max_rank are per simplex, the min of lo_rank and the max of hi_rank
    over its vertices.
    """
    vertex, simplex = plan.star_vertex, plan.star_simplex
    # the star copies active just below lo (first half) and just above hi
    active = np.concatenate(
        [min_rank[simplex] < lo_rank[vertex], max_rank[simplex] > hi_rank[vertex]]
    )
    n = len(vertex)
    a = np.concatenate([plan.star_cofacet, plan.star_cofacet + n])
    b = np.concatenate([plan.star_facet, plan.star_facet + n])
    join = active[a] & active[b]
    _, label = _components(2 * n, a[join], b[join])
    copy = np.flatnonzero(active)
    copy = copy[np.unique(label[copy], return_index=True)[1]]  # one per component
    n_vertices = len(lo_rank)
    count = np.bincount(vertex[copy % n] + n_vertices * (copy >= n), minlength=2 * n_vertices)
    keep = np.zeros(n_levels, dtype=bool)
    keep[lo_rank[count[:n_vertices] != 1]] = True
    keep[hi_rank[count[n_vertices:] != 1]] = True
    u, w = plan.blocks[1].T
    for event_u in (lo_rank[u], hi_rank[u]):
        for event_w in (lo_rank[w], hi_rank[w]):
            keep[event_u[event_u == event_w]] = True
    return keep


def sweep_quotient(first, last, pair_a, pair_b, n_levels, *, plan):
    """The skeleton of the sweep of key windows (see the module docstring).

    plan is the `sweep_plan` of the face table that pair_a, pair_b come
    from, and each window must be the hull of its vertices' windows.
    """
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    m = len(first)

    hull_first, hull_last = vertex_hulls(plan.blocks, first, last)
    if not (np.array_equal(hull_first, first) and np.array_equal(hull_last, last)):
        raise ValueError("a sweep needs windows that are the hulls of their vertices' windows")
    roots, local, kept = plan.roots, plan.local, plan.kept
    cand, cand_first, cand_last = _head_candidates(first, last, plan.blocks)
    root_first, root_last = first[roots], last[roots]
    # the slabs j (key 2j + 1) in each root's window
    slab_first, slab_last = root_first // 2, (root_last - 1) // 2
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
    pending = np.empty(0, dtype=np.int64)  # roots that give the last block's top arcs their tops
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

        # per slab component, a root whose window reaches the key below
        # (down) and one whose window reaches the key above (up)
        item, slab = _window_keys(slab_first, slab_last, k0 // 2, k1 // 2)
        key = 2 * slab + 1
        comp = labels[offset[item] + key]
        down = np.full(n_comp, -1, dtype=np.int64)
        up = np.full(n_comp, -1, dtype=np.int64)
        reach = root_first[item] < key
        down[comp[reach]] = item[reach]
        reach = root_last[item] > key
        up[comp[reach]] = item[reach]
        del item, slab, key, comp, reach

        order = np.argsort(head)
        head_key, head_rep = np.divmod(head[order], m)
        head_key += k0
        on_level = head_key % 2 == 0
        comp_node = np.empty(len(head), dtype=np.int64)
        comp_node[order[on_level]] = n_nodes + np.arange(int(on_level.sum()))

        def node_at(root, k):
            return comp_node[labels[offset[root] + k]]

        if len(pending):
            arc_top[-1][-len(pending) :] = node_at(pending, k0)
        node_level.append(head_key[on_level] // 2)
        node_rep.append(head_rep[on_level])
        n_nodes += int(on_level.sum())

        arc, slab_key = order[~on_level], head_key[~on_level]
        bottom, top_root = down[arc], up[arc]
        if np.any(bottom < 0) or np.any(top_root < 0):
            raise ValueError("a slab component has no copy on the level below or above it")
        arc_rep.append(head_rep[~on_level])
        arc_bottom.append(node_at(bottom, slab_key - 1))
        inside = slab_key < k1
        top = np.empty(len(arc), dtype=np.int64)
        top[inside] = node_at(top_root[inside], slab_key[inside] + 1)
        arc_top.append(top)
        pending = top_root[~inside]

    def joined(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return tuple(joined(p) for p in (node_level, node_rep, arc_bottom, arc_top, arc_rep))
