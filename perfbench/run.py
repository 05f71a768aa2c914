"""reebsmooth benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh, single-threaded Python process with
`src` on PYTHONPATH, the import path the tests use.  Without a compiled sweep
extension that path selects the pure backend.  The program receives only
inputs generated from --seed.  Each workload is a closed loop with one
client: the next op starts when the previous one has finished and its output
has been checked.  Output checks run outside the timed region, and an op
whose check fails, or which raises, counts as failed.

Workloads (ROADMAP open items in brackets):

  reeb-build        op: `reebsmooth.cli.main(["build", "--in", <18x18 torus
                    .off>, "--field", F, "--out", <tmp>])`, F cycling through
                    the height `y` (a 4-node graph), a seeded uniform random
                    field given as `csv:` (~180 nodes, a large pre-splice
                    skeleton) and a random field on 8 levels (ties and
                    plateaus).  Why: the `build` user path (parse,
                    validate, enumerate, sweep, splice, serialize) on one
                    base complex.  It shows a faster sweep [2] and an
                    output-sensitive sweep [3]; it has no smoothing, measures
                    or diagrams, so it bypasses [1] and [4].
                    Check: node values are vertex values, and at every edge
                    midpoint c (a fixed sample of 64 when there are more)
                    `level_components` on the mesh counts as many components
                    as the graph has points at level c.
  stability-smooth  op: `run_stability(ExperimentConfig(mode=m, trials=3,
                    seed=s, threads=1))`, m alternating dtm and kernel; the
                    three trials use the circle, the rig and a 12x12 torus.
                    Why: the `stability` CLI path, which resolves radius
                    fields, thickens to 3n vertices and sweeps many small
                    thickened complexes, then computes W2 by LP or the kernel
                    distance.  It shows smoothing on the base complex [1] and
                    a faster sweep [2], with tiny graphs in the diagram layer
                    [4].  Check: all trials pass, lower <= upper bound.

Extended persistence on large graphs, the case of a diagram layer that scales
[4], has no workload of its own.  On the shared 2-vCPU machine the benchmark
was tuned on, whose speed drifted by up to 2x over minutes, two workloads with
long runs gave steadier figures than three with short ones in the same total
benchmark time.  The diagram layer is measured on stability-smooth.

End-to-end metrics (--trace 0), each printed with its unit and sample count:

  setup_s      process start to inputs ready (interpreter and reebsmooth
               import, meshes, fields, input files); median of 3 processes
  ops_per_s    ops completed per second of timed op time
  op_p50_s     median op latency
  op_tail_s    p90 op latency (nearest rank); the samples beyond it are
               printed.  The percentile is fixed, so that a faster program,
               which completes more ops in a run, is not judged at a higher
               percentile.  A 50 s run has some 200 reeb-build ops and 20
               stability-smooth ops.
  peak_rss_mb  peak resident memory of the workload's process
  fail_frac    failed ops / attempted ops; printed, and given in the JSON
               result as `attempted` and `failed` (it is 0 when all is well,
               so it cannot carry a relative bound)

With --trace 1 a separate run rebinds, in its own process, the functions
through which each layer calls the next (see tracer.py) and prints the
per-layer metrics instead.  Nothing under `src/` changes.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full result is also written to `.perfbench_out/`: raw
latencies and provenance, and for a traced run every span record and the
per-span summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("reeb-build", "stability-smooth")
RUN_SECONDS = 50  # BENCHMARK.json's run_seconds
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # one invocation, whatever its workloads, ends within 180 s
TAIL_PERCENTILE = 90.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def tail(latencies):
    """(nearest-rank TAIL_PERCENTILE latency, samples beyond it)."""
    lat = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(lat)))
    return lat[rank - 1], len(lat) - rank


def end_to_end(setups, result):
    lat = result["latencies"]
    value, beyond = tail(lat)
    n = len(lat)
    rows = {
        "setup_s": (statistics.median(setups), len(setups), f"median of {len(setups)} processes"),
        "ops_per_s": (n / sum(lat), n, f"{sum(lat):.2f} s timed"),
        "op_p50_s": (statistics.median(lat), n, ""),
        "op_tail_s": (value, n, f"p{TAIL_PERCENTILE:g}, {beyond} samples beyond"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, "ru_maxrss of the workload process"),
    }
    return rows


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the default backend selection, one thread everywhere
    env.pop("REEBSMOOTH_BACKEND", None)
    env.pop("REEB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(root, workdir, args, setup_only, procs, deadline):
    """Start a worker, appending it to procs; return it once it is set up."""
    os.makedirs(workdir)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload_name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        raise BenchError(f"{args.workload_name}: worker failed during set-up")
    return proc, ready


def run_workload(root, args, deadline):
    """Run one workload; returns (setup samples, worker result)."""
    scratch = os.path.join(root, ".perfbench_tmp", f"{os.getpid()}-{args.workload_name}")
    setups = []
    procs = []
    try:
        # set-up-only processes first, then the one that goes on to measure
        n_setup_only = 0 if args.trace else SETUP_SAMPLES - 1
        for i in range(n_setup_only + 1):
            last = i == n_setup_only
            workdir = os.path.join(scratch, "run" if last else f"setup-{i}")
            proc, ready = _start(root, workdir, args, not last, procs, deadline)
            setups.append(ready)
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise BenchError(f"{args.workload_name}: worker exited with {proc.returncode}")
        return setups, json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload_name}: the invocation passed its {DEADLINE_S:g} s deadline") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


def report(root, args, setups, result):
    """Print the human-readable table; return the JSON result object."""
    failed = len(result["failures"])
    attempted = result["attempted"]
    correct = failed == 0 and not result["foreign_bindings"]
    print(f"== {args.workload_name}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for message in result["failures"][:3]:
        print("failure: " + message.strip().replace("\n", " | "))
    for name in result["foreign_bindings"]:
        print(f"failure: {name} is not the program's own function")
    if args.trace:
        print(f"{'span':<36} {'calls/op':>9} {'total s/op':>11} {'self s/op':>10}")
        spans = sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in spans:
            print(
                f"{name:<36} {row['calls'] / attempted:>9.2f}"
                f" {row['total_s'] / attempted:>11.5f} {row['self_s'] / attempted:>10.5f}"
            )
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, m in metrics.items():
            print(f"{name:<32} {m['value']:>14.6g} {m['unit']:<6} n={attempted} (per op)")
    else:
        rows = end_to_end(setups, result)
        metrics = {}
        print(f"{'metric':<12} {'value':>12} {'unit':<5} {'n':>4}  note")
        for name, unit in END_TO_END.items():
            value, n, note = rows[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<12} {value:>12.6g} {unit:<5} {n:>4}  {note}")
        print(f"{'fail_frac':<12} {failed / attempted:>12.6g} {'frac':<5} {attempted:>4}  {failed} failed")
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.workload_name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, setup_samples=setups, metrics=metrics), fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reebsmooth", "__init__.py")):
        print("error: run from the root of a reebsmooth checkout (src/reebsmooth missing)", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    deadline = time.monotonic() + DEADLINE_S
    try:
        for name in names:
            args.workload_name = name
            setups, result = run_workload(root, args, deadline)
            results[name] = report(root, args, setups, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
