"""Built-in meshes and fields for the stability harness (`experiments`) and
the test suite; `cli` reaches it only through `experiments`.
"""

import numpy as np

from .complexes import ScalarField, SimplicialComplex


def circle_complex(n=48):
    """Unit circle as an n-gon in R^2 with the height field y = -cos(angle).

    Vertex 0 sits at the bottom (value -1), vertex n//2 at the top (+1).
    Returns (complex, field).
    """
    k = np.arange(n)
    ang = 2.0 * np.pi * k / n
    coords = np.stack([np.sin(ang), -np.cos(ang)], axis=1)
    X = SimplicialComplex.build(k, coords, {1: np.stack([k, (k + 1) % n], axis=1)})
    return X, ScalarField(coords[:, 1].copy())


def torus_mesh(n_theta=16, n_phi=16, ring_radius=2.0, tube_radius=1.0):
    """Standard torus triangulation with the height field y.

    The torus stands upright: y = (R + r cos(phi)) sin(theta), so the height
    Reeb graph has four nodes (min, two saddles, max) with degrees 1,3,3,1.
    Returns (complex, field).
    """
    ii, jj = np.meshgrid(np.arange(n_theta), np.arange(n_phi), indexing="ij")
    theta = 2.0 * np.pi * ii / n_theta
    phi = 2.0 * np.pi * jj / n_phi
    ring = ring_radius + tube_radius * np.cos(phi)
    x = ring * np.cos(theta)
    y = ring * np.sin(theta)
    z = tube_radius * np.sin(phi)
    coords = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)

    # vertex (i, j) is i * n_phi + j; b, c, d are a's next in i, in j and in both
    a = np.arange(n_theta * n_phi).reshape(n_theta, n_phi)
    b, c = np.roll(a, -1, axis=0), np.roll(a, -1, axis=1)
    d = np.roll(b, -1, axis=1)
    tris = np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)]).reshape(-1, 3)
    X = SimplicialComplex.build(a.ravel(), coords, {2: tris})
    return X, ScalarField(coords[:, 1].copy())


def three_loop_rig(n_outer=40, n_a=24, n_b=16):
    """Planar 1-complex with three loops and the height field y.

    An outer ring of diameter 1.0 centered at the origin, with two smaller
    rings internally tangent to it: ring A (diameter 0.45) wedged at the
    outer vertex at angle 225 degrees, ring B (diameter 0.30) wedged at 45
    degrees.  Each small ring shares exactly one vertex with the outer ring.
    Returns (complex, field).
    """
    r_out, r_a, r_b = 0.5, 0.225, 0.15
    ang = 2.0 * np.pi * np.arange(n_outer) / n_outer
    outer = np.stack([r_out * np.cos(ang), r_out * np.sin(ang)], axis=1)

    def wedge_ring(wedge_index, radius, segments):
        wedge = outer[wedge_index]
        center = wedge * (1.0 - radius / r_out)
        base = np.arctan2(wedge[1] - center[1], wedge[0] - center[0])
        a = base + 2.0 * np.pi * np.arange(segments) / segments
        pts = np.stack(
            [center[0] + radius * np.cos(a), center[1] + radius * np.sin(a)], axis=1
        )
        pts[0] = wedge  # share the wedge vertex exactly
        return pts

    k_a = n_outer * 5 // 8  # 225 degrees
    k_b = n_outer // 8  # 45 degrees
    ring_a = wedge_ring(k_a, r_a, n_a)
    ring_b = wedge_ring(k_b, r_b, n_b)

    # each small ring is its wedge vertex followed by its own new vertices
    coords = np.concatenate([outer, ring_a[1:], ring_b[1:]])
    ids_a = np.r_[k_a, n_outer : n_outer + n_a - 1]
    ids_b = np.r_[k_b, n_outer + n_a - 1 : len(coords)]
    loops = (np.arange(n_outer), ids_a, ids_b)
    edges = np.concatenate([np.stack([ids, np.roll(ids, -1)], axis=1) for ids in loops])
    X = SimplicialComplex.build(np.arange(len(coords)), coords, {1: edges})
    return X, ScalarField(X.coords[:, 1].copy())


def random_complex(rng, n_vertices=12, n_edges=18, n_triangles=6, coord_dim=2):
    """Random closed complex for property tests (connected not guaranteed)."""
    n = int(n_vertices)
    coords = rng.uniform(-1.0, 1.0, size=(n, coord_dim))
    edges = [rng.choice(n, size=2, replace=False) for _ in range(int(n_edges))]
    tris = [rng.choice(n, size=3, replace=False) for _ in range(int(n_triangles))]
    return SimplicialComplex.build(np.arange(n), coords, {1: edges, 2: tris})


def random_field(rng, X, quantize=None):
    """Random vertex field in [-1, 1].

    `quantize` rounds values to multiples of 1/quantize to force ties; below 1
    every value rounds to 0.
    """
    vals = rng.uniform(-1.0, 1.0, size=X.n_vertices)
    if quantize:
        vals = np.round(vals * quantize) / quantize
    return ScalarField(vals)
