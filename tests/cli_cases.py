"""Byte-identity gate for the command line.

    PYTHONPATH=<tree>/src python tests/cli_cases.py OUTDIR

writes seeded inputs to OUTDIR/inputs, then runs `python -m reebsmooth` once
per entry of CASES, with OUTDIR/<case> as the working directory (so <tree>
must be an absolute path).  Each case directory keeps the argv, stdout,
stderr and exit code of its run and every file the run wrote;
OUTDIR/MANIFEST.sha256 lists the sha256 of every file.
Inputs are made with numpy alone, not with the tree under test, and every path
a case names is relative, so `diff -r` of the OUTDIRs of two trees is the gate
for a change that must keep the CLI's output.

pytest does not collect this file; `test_experiments.py` checks that every
case's argv parses.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import numpy as np

IN = "../inputs/"
BUILD = ["build", "--in", IN + "torus.off", "--out", "g.json"]
SMOOTH = ["smooth", "--in", IN + "torus.json"]
POINTS = ["--measure", IN + "points.csv"]
STABILITY = ["stability", "--trials", "100", "--seed", "0", "--out", "r.json"]

CASES = [
    ("build-y", BUILD + ["--field", "y", "--dot", "g.dot"]),
    ("build-random", BUILD + ["--field", "csv:" + IN + "random.csv"]),
    ("build-levels", BUILD + ["--field", "csv:" + IN + "levels.csv"]),
    ("build-json", ["build", "--in", IN + "torus.json"]),
    ("smooth-eps", SMOOTH + ["--eps", "0.3", "--out", "g.json"]),
    ("smooth-dtm", SMOOTH + ["--dtm", "0.2"] + POINTS),
    ("smooth-kernel", SMOOTH + ["--kernel", "0.4"] + POINTS),
    ("smooth-eps-dtm", SMOOTH + ["--eps", "0.3", "--dtm", "0.2"] + POINTS),
    ("range", ["range", "--in", IN + "torus.json", "--measure", IN + "weights.csv"]),
    ("stability-dtm", STABILITY + ["--mode", "dtm"]),
    ("stability-kernel", STABILITY + ["--mode", "kernel"]),
    ("stability-range", STABILITY + ["--mode", "range"]),
    ("fig4", ["fig4", "--out", "fig4.json", "--dot", "fig4"]),
    ("error-missing-in", ["build", "--in", IN + "missing.off"]),
    ("error-bad-off", ["build", "--in", IN + "bad.off"]),
    ("build-mixed-off", ["build", "--in", IN + "mixed.off", "--field", "z + 0.25*x*y", "--dot", "g.dot"]),
    ("build-colors-off", ["build", "--in", IN + "colors.off", "--out", "g.json", "--dot", "g.dot"]),
    ("build-levels-dot", BUILD + ["--field", "csv:" + IN + "levels.csv", "--dot", "g.dot"]),
    ("build-json-solid", ["build", "--in", IN + "solid.json", "--dot", "g.dot"]),
    ("error-json-unknown-id", ["build", "--in", IN + "unknown-id.json"]),
    ("error-json-duplicate-id", ["build", "--in", IN + "duplicate-id.json"]),
    ("error-nan-off", ["build", "--in", IN + "nan.off"]),
    ("error-json-nan-field", ["build", "--in", IN + "nan-field.json"]),
    ("error-json-nested-coords", ["build", "--in", IN + "nested-coords.json"]),
]


def _torus(n, ring=2.0, tube=1.0):
    """The n x n upright torus: coords (n*n, 3) and triangles (2*n*n, 3)."""
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    theta, phi = 2.0 * np.pi * ii / n, 2.0 * np.pi * jj / n
    r = ring + tube * np.cos(phi)
    coords = np.stack([r * np.cos(theta), r * np.sin(theta), tube * np.sin(phi)], axis=-1)
    a, b = ii * n + jj, (ii + 1) % n * n + jj
    c, d = ii * n + (jj + 1) % n, (ii + 1) % n * n + (jj + 1) % n
    tris = np.concatenate([np.stack([a, b, c], -1), np.stack([b, d, c], -1)]).reshape(-1, 3)
    return coords.reshape(-1, 3), tris


def _solid(n):
    """An n x n x n grid of cubes, each cut into 6 tetrahedra along its main
    diagonal: coords ((n+1)**3, 3) and tetrahedra (6 * n**3, 4)."""
    m = n + 1
    grid = np.stack(np.meshgrid(*[np.arange(m)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    corner = grid[(grid < n).all(axis=1)] @ np.array([m * m, m, 1])
    steps = np.array([m * m, m, 1])
    tets = []
    for perm in ([0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]):
        path = np.cumsum(steps[perm])
        tets.append(np.stack([corner, *(corner + p for p in path)], axis=1))
    return grid.astype(np.float64), np.concatenate(tets)


def _write(path, text, newline=None):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)


def _lines(rows):
    return "".join(",".join(f"{v:.17g}" for v in np.atleast_1d(row)) + "\n" for row in rows)


def write_inputs(folder):
    rng = np.random.default_rng(0)
    coords, tris = _torus(18)
    off = [f"OFF\n{len(coords)} {len(tris)} 0\n"]
    off += [" ".join(f"{c:.17g}" for c in row) + "\n" for row in coords]
    off += [f"3 {a} {b} {c}\n" for a, b, c in tris]
    _write(os.path.join(folder, "torus.off"), "".join(off))
    _write(os.path.join(folder, "random.csv"), _lines(rng.uniform(-1.0, 1.0, len(coords))))
    levels = np.floor(rng.uniform(0.0, 1.0, len(coords)) * 8) / 8
    _write(os.path.join(folder, "levels.csv"), _lines(levels))
    _write(os.path.join(folder, "bad.off"), "OFF\n3 1 0\n0 0 0\n1 0 zero\n0 1 0\n3 0 1 2\n")

    coords, tris = _torus(12)
    mesh = {
        "vertices": [{"id": i, "coords": row.tolist()} for i, row in enumerate(coords)],
        "simplices": {"2": tris.tolist()},
        "field": (coords[:, 1] + 0.3 * rng.uniform(-1.0, 1.0, len(coords))).tolist(),
    }
    _write(os.path.join(folder, "torus.json"), json.dumps(mesh))
    points = coords[rng.integers(0, len(coords), 12)] + rng.normal(0.0, 0.08, (12, 3))
    weights = rng.dirichlet(np.ones(12))
    _write(os.path.join(folder, "points.csv"), _lines(np.c_[points, weights]))
    _write(os.path.join(folder, "weights.csv"), _lines(np.c_[rng.uniform(-3.0, 3.0, 12), weights]))

    # comments, blank lines, CRLF line ends, color fields and faces of 2, 3
    # and 4 vertices: tetrahedra of a jittered 3 x 3 x 3 grid, some of their
    # triangles again, and a path of edges to two more vertices
    coords, tets = _solid(3)
    coords = np.r_[coords + rng.uniform(-0.2, 0.2, coords.shape), [[4.0, 1.5, 1.5], [5.0, 1.0, 2.0]]]
    n = len(coords)
    faces = [f"4 {a} {b} {c} {d}" + (" 0.5 0.25 1 1" if i % 3 == 0 else "") for i, (a, b, c, d) in enumerate(tets)]
    faces += [f"3 {a} {c} {b}  # a face again" for a, b, c, _ in tets[::7]]
    faces += [f"2 {n - 3} {n - 2} 255 0 0", f"2 {n - 2} {n - 1}"]
    order = rng.permutation(len(faces))
    lines = ["# mixed faces", "OFF", "", f"{n} {len(faces)} 0  # nv nf ne"]
    lines += [" ".join(f"{c:.17g}" for c in row) + (" # first" if i == 0 else "") for i, row in enumerate(coords)]
    lines += [faces[i] if i % 5 else "\t" + faces[i] + "\n" for i in order]
    _write(os.path.join(folder, "mixed.off"), "\r\n".join(lines) + "\r\n", newline="")

    # one face size, every face row with a color
    coords, tris = _torus(12)
    off = [f"OFF\n{len(coords)} {len(tris)} 0\n"]
    off += [" ".join(f"{c:.17g}" for c in row) + "\n" for row in coords]
    off += [f"3 {a} {b} {c} 200 100 {a % 256}\n" for a, b, c in tris]
    _write(os.path.join(folder, "colors.off"), "".join(off))

    # a complex JSON of tetrahedra with an embedded field
    coords, tets = _solid(2)
    solid = {
        "vertices": [{"id": 3 * i + 1, "coords": row.tolist()} for i, row in enumerate(coords)],
        "simplices": {"3": (3 * tets + 1).tolist()},
        "field": rng.uniform(-1.0, 1.0, len(coords)).round(3).tolist(),
    }
    _write(os.path.join(folder, "solid.json"), json.dumps(solid))
    pair = [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [1.0]}]
    unknown = {"vertices": pair, "simplices": {"1": [[0, 1], [1, 7]]}}
    _write(os.path.join(folder, "unknown-id.json"), json.dumps(unknown))
    twice = {"vertices": pair + [{"id": 0, "coords": [2.0]}], "simplices": {"1": [[0, 1]]}}
    _write(os.path.join(folder, "duplicate-id.json"), json.dumps(twice))
    _write(os.path.join(folder, "nan.off"), "OFF\n3 1 0\n0 0\nnan 0\n0 1\n3 0 1 2\n")
    nan_field = {"vertices": pair, "simplices": {"1": [[0, 1]]}, "field": [0.0, float("nan")]}
    _write(os.path.join(folder, "nan-field.json"), json.dumps(nan_field))
    nested = [{"id": i, "coords": [row]} for i, row in enumerate([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    _write(os.path.join(folder, "nested-coords.json"), json.dumps({"vertices": nested, "simplices": {"2": [[0, 1, 2]]}}))


def run(outdir):
    os.makedirs(os.path.join(outdir, "inputs"))
    write_inputs(os.path.join(outdir, "inputs"))
    for name, argv in CASES:
        case = os.path.join(outdir, name)
        os.makedirs(case)
        done = subprocess.run(
            [sys.executable, "-m", "reebsmooth", *argv], cwd=case, capture_output=True, timeout=600
        )
        _write(os.path.join(case, "argv"), shlex.join(argv) + "\n")
        _write(os.path.join(case, "exit_code"), f"{done.returncode}\n")
        for stream in ("stdout", "stderr"):
            with open(os.path.join(case, stream), "wb") as fh:
                fh.write(getattr(done, stream))
        print(f"{name}: exit {done.returncode}")
    manifest = []
    for root, _, files in sorted(os.walk(outdir)):
        for f in sorted(files):
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            manifest.append(f"{digest}  {os.path.relpath(path, outdir)}\n")
    _write(os.path.join(outdir, "MANIFEST.sha256"), "".join(manifest))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=<tree>/src python tests/cli_cases.py OUTDIR")
    run(sys.argv[1])
