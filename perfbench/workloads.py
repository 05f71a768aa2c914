"""Seeded inputs, one operation and an output check for each workload.

A workload object is built once per process (its construction is the timed
set-up), then the benchmark calls `ops(k)` for the k-th cycle of operations,
`run(op)` for each of them, and `check(op, out)` outside the timed region.
An op is a tuple whose first item names its kind.  `check` returns None when
the output is right and a message otherwise.

Inputs depend only on the seed and are drawn into a fixed pool, which later
cycles reuse in order.  Checks never look at a node's `witness_vertex`: which
vertex witnesses a node is metadata that the program may change on purpose.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reebsmooth.cli as cli
import reebsmooth.experiments as experiments
import reebsmooth.reeb as reeb
from reebsmooth.fileio import load_off
from reebsmooth.meshes import torus_mesh

# seeded inputs per kind, more than a run uses, so that a run's figures
# average over many inputs rather than repeat a few; cycles past the pool
# reuse it in order
POOL = 64

BUILD_TORUS = 18  # reeb-build mesh: 18 x 18 torus, 324 vertices
BUILD_QUANT_LEVELS = 8
# edge midpoints checked per graph; a random-field graph has some 200, and
# each check is one level-set pass over the whole mesh
CHECK_LEVELS = 64
STABILITY_TRIALS = 3  # one trial each on the circle, the rig and the 12 x 12 torus


def write_off(X, path):
    with open(path, "w", encoding="utf-8") as fh:
        tris = X.simplices[2]
        fh.write(f"OFF\n{X.n_vertices} {len(tris)} 0\n")
        for row in X.coords:
            fh.write(" ".join(f"{c:.17g}" for c in row) + "\n")
        for a, b, c in tris:
            fh.write(f"3 {a} {b} {c}\n")


def write_field(values, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v:.17g}\n" for v in values))


class ReebBuild:
    """`reebsmooth build` on an 18 x 18 torus, cycling three fields.

    y: the upright height, a 4-node graph.
    random: uniform random values, about 180 nodes and a large skeleton.
    quantized: random values on 8 levels, so ties and plateaus.
    """

    name = "reeb-build"

    def __init__(self, seed, workdir):
        X, _ = torus_mesh(BUILD_TORUS, BUILD_TORUS)
        self.mesh_path = os.path.join(workdir, "torus.off")
        write_off(X, self.mesh_path)
        # the complex exactly as the CLI reads it, for the output check
        self.X = load_off(self.mesh_path)
        self.out_path = os.path.join(workdir, "graph.json")
        n = self.X.n_vertices
        rng = np.random.default_rng(seed)
        self.pool = []
        for i in range(POOL):
            rand = rng.uniform(-1.0, 1.0, size=n)
            quant = np.floor(rng.uniform(0.0, 1.0, size=n) * BUILD_QUANT_LEVELS) / BUILD_QUANT_LEVELS
            cycle = [("y", "y", self.X.coords[:, 1])]
            for kind, values in (("random", rand), ("quantized", quant)):
                path = os.path.join(workdir, f"{kind}-{i}.csv")
                write_field(values, path)
                cycle.append((kind, "csv:" + path, values))
            self.pool.append(cycle)

    def ops(self, k):
        return self.pool[k % POOL]

    def run(self, op):
        _, spec, _ = op
        argv = ["build", "--in", self.mesh_path, "--field", spec, "--out", self.out_path]
        return cli.main(argv)

    def check(self, op, out):
        if out != 0:
            return f"exit code {out}"
        with open(self.out_path, "r", encoding="utf-8") as fh:
            graph = reeb.ReebGraph.from_dict(json.load(fh)["graph"])
        values = op[2]
        if not np.all(np.isin(graph.node_values, values)):
            return "node value is not a vertex value"
        vals = graph.node_values
        mids = np.unique((vals[graph.edges[:, 0]] + vals[graph.edges[:, 1]]) / 2.0)
        if len(mids) > CHECK_LEVELS:
            rng = np.random.default_rng(len(vals))
            mids = rng.choice(mids, size=CHECK_LEVELS, replace=False)
        for c in mids:
            count = reeb.level_components(self.X, values, c)[0]
            if count != graph.level_multiplicity(c):
                return f"level {c!r}: {count} level-set components, graph has {graph.level_multiplicity(c)}"
        return None


class StabilitySmooth:
    """`run_stability` with three trials, alternating the dtm and kernel modes."""

    name = "stability-smooth"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=POOL)
        # one op per cycle, so that a run stops within one op of its budget
        self.pool = [[(("dtm", "kernel")[i % 2], int(s))] for i, s in enumerate(seeds)]

    def ops(self, k):
        return self.pool[k % len(self.pool)]

    def run(self, op):
        mode, seed = op
        config = experiments.ExperimentConfig(
            mode=mode, trials=STABILITY_TRIALS, seed=seed, threads=1
        )
        return experiments.run_stability(config)

    def check(self, op, out):
        trials = out["trials"]
        if len(trials) != STABILITY_TRIALS:
            return f"{len(trials)} trials reported"
        if not out["all_pass"]:
            return f"violations {out['violations']}"
        for t in trials:
            if not t["lower_bound"] <= t["upper_bound"]:
                return f"trial {t['trial']}: lower bound above upper bound"
        return None


WORKLOADS = {w.name: w for w in (ReebBuild, StabilitySmooth)}
