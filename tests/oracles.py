"""Independent reference constructions that the tests check the library against.

Each is deliberately naive and guarded to small inputs:

- `slab_oracle`: the Reeb graph by direct slab decomposition, with a plain
  union-find over shared codim-1 faces (checks `reeb.reeb_graph`);
- `bottleneck_oracle`: the bottleneck distance by brute force over all
  partial matchings (checks `diagrams.bottleneck`);
- `off_oracle`: an OFF text read line by line with float() and int(), closed
  under faces with itertools (checks `fileio.parse_off`).
"""

import itertools

import numpy as np

from reebsmooth.complexes import as_scalar_field
from reebsmooth.errors import GuardViolation, ValidationError
from reebsmooth.reeb import ReebGraph


SLAB_ORACLE_MAX = 10_000


class _OracleUF:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def slab_oracle(X, f):
    """Reference Reeb construction by direct slab decomposition.

    Deliberately naive: every simplex is a tuple, activity at a level value
    or open slab is decided by comparing its min/max vertex values against
    the slab endpoints, components come from a plain union-find over shared
    codim-1 faces, and regular points are spliced by walking dictionaries.
    Quadratic in places, guarded to small complexes; used to cross-check the
    production sweep.
    """
    f = as_scalar_field(f)
    if len(f.values) != X.n_vertices:
        raise ValidationError("field length mismatch")
    simplices = [(v,) for v in range(X.n_vertices)]
    for d in sorted(X.simplices):
        simplices.extend(tuple(int(v) for v in row) for row in X.simplices[d])
    if len(simplices) > SLAB_ORACLE_MAX:
        raise GuardViolation(
            f"slab_oracle handles at most {SLAB_ORACLE_MAX} simplices; "
            "use reeb_graph for larger inputs"
        )
    index = {s: i for i, s in enumerate(simplices)}
    vmin = np.array([f.values[list(s)].min() for s in simplices])
    vmax = np.array([f.values[list(s)].max() for s in simplices])
    levels = np.unique(f.values)

    def components(active):
        uf = _OracleUF(len(active))
        local = {simplices[g]: i for i, g in enumerate(active)}
        for i, g in enumerate(active):
            s = simplices[g]
            if len(s) == 1:
                continue
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                j = local.get(face)
                if j is not None:
                    uf.union(i, j)
        label = {}
        comp_of = []
        for i in range(len(active)):
            root = uf.find(i)
            if root not in label:
                label[root] = len(label)
            comp_of.append(label[root])
        return comp_of, len(label)

    node_values = []
    node_reps = []
    raw_edges = []
    level_node = []  # per level: global index of each simplex -> node id
    for t, w in enumerate(levels):
        active = [g for g in range(len(simplices)) if vmin[g] <= w <= vmax[g]]
        comp_of, n_comp = components(active)
        base = len(node_values)
        node_values.extend([float(w)] * n_comp)
        reps = {}
        lookup = {}
        for i, g in enumerate(active):
            node = base + comp_of[i]
            lookup[g] = node
            head = simplices[g][0]
            if node not in reps or head < reps[node]:
                reps[node] = head
        node_reps.extend(reps[base + c] for c in range(n_comp))
        level_node.append(lookup)
        if t == 0:
            continue
        lo, hi = levels[t - 1], w
        spanning = [g for g in range(len(simplices)) if vmin[g] <= lo and vmax[g] >= hi]
        comp_of, n_comp = components(spanning)
        seen = set()
        for i, g in enumerate(spanning):
            if comp_of[i] in seen:
                continue
            seen.add(comp_of[i])
            raw_edges.append((level_node[t - 1][g], level_node[t][g]))

    # splice degree-(1,1) nodes: walk each chain from its non-regular bottom
    outs = {}
    ins = {}
    for a, b in raw_edges:
        outs.setdefault(a, []).append(b)
        ins.setdefault(b, []).append(a)
    regular = {
        u
        for u in range(len(node_values))
        if len(outs.get(u, ())) == 1 and len(ins.get(u, ())) == 1
    }
    kept_edges = []
    for a, b in raw_edges:
        if a in regular:
            continue
        while b in regular:
            b = outs[b][0]
        kept_edges.append((a, b))
    keep = sorted(set(range(len(node_values))) - regular)
    renum = {old: new for new, old in enumerate(keep)}
    return ReebGraph(
        np.array([node_values[u] for u in keep]),
        np.array([node_reps[u] for u in keep], dtype=np.int64),
        np.array(sorted((renum[a], renum[b]) for a, b in kept_edges), dtype=np.int64).reshape(-1, 2),
    )


def bottleneck_oracle(d1, d2):
    """Brute force over all partial matchings (diagonal charge = pers/2)."""

    def cost(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def diag(p):
        return abs(p[1] - p[0]) / 2.0

    a = [(p.birth, p.death) for p in d1.points]
    b = [(p.birth, p.death) for p in d2.points]
    best = min(
        (
            max(
                [cost(a[i], b[j]) for i, j in zip(sub_a, sub_b)]
                + [diag(a[i]) for i in range(len(a)) if i not in sub_a]
                + [diag(b[j]) for j in range(len(b)) if j not in sub_b],
                default=0.0,
            )
            for k in range(min(len(a), len(b)) + 1)
            for sub_a in itertools.combinations(range(len(a)), k)
            for sub_b in itertools.permutations(range(len(b)), k)
        ),
        default=0.0,
    )
    return float(best)


class OffFault(Exception):
    """A faulty content line of an OFF text; `line` is its 1-based number."""

    def __init__(self, line):
        super().__init__(f"line {line}")
        self.line = line


def off_oracle(text):
    """An OFF text as (coords, simplices), read one line at a time.

    coords is a list of float tuples; simplices maps each dimension >= 1 to
    the sorted list of vertex tuples of the complex closed under faces.  The
    text's header and counts must be well formed; the first vertex or face
    line that is faulty raises OffFault with its line number.  A vertex line
    is faulty unless it has as many fields as the first vertex line, each a
    float(); a face line unless it reads "k i_1 ... i_k [anything]" with k in
    2..4 and k distinct int() indices below the vertex count.
    """
    lines = []
    for number, raw in enumerate(text.splitlines(), 1):
        payload = raw.split("#", 1)[0].split()
        if payload:
            lines.append((number, payload))
    (_, header), (_, counts), *rows = lines
    assert header == ["OFF"] and len(counts) == 3, "the oracle reads well-formed headers only"
    nv, nf = int(counts[0]), int(counts[1])
    coords, faces = [], []
    width = len(rows[0][1])
    for number, fields in rows[:nv]:
        try:
            if len(fields) != width:
                raise ValueError
            coords.append(tuple(float(x) for x in fields))
        except ValueError:
            raise OffFault(number) from None
    for number, fields in rows[nv : nv + nf]:
        try:
            k = int(fields[0])
            if not 2 <= k <= 4 or len(fields) < k + 1:
                raise ValueError
            face = tuple(sorted(int(x) for x in fields[1 : k + 1]))
            if face[0] < 0 or face[-1] >= nv or len(set(face)) < k:
                raise ValueError
        except ValueError:
            raise OffFault(number) from None
        faces.append(face)
    simplices = {}
    for face in faces:
        for size in range(2, len(face) + 1):
            for sub in itertools.combinations(face, size):
                simplices.setdefault(size - 1, set()).add(sub)
    return coords, {d: sorted(rows) for d, rows in simplices.items()}
