"""One benchmark process: set up a workload, signal readiness, run it, report.

Started by run.py from the root of a checkout with `src` on PYTHONPATH.  After
set-up it prints `READY` so that the parent can time set-up from process
start.  With --setup-only it stops there.  Otherwise it runs one warm-up op
(untimed), then whole cycles of ops until their summed latency reaches
--seconds, checking each output outside the timed region, and prints one JSON
object as its last line.

With --trace 1 every op runs twice on the same input, once plain and once
under the tracer, in alternating order; the per-layer metrics come from the
traced runs and `trace.overhead_frac` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback


def _timed(fn, *args):
    """(seconds, output, error message) of one call."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # a failing op is counted, not fatal
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, None


def _checked(wl, op, out, error):
    if error is not None:
        return error
    try:
        return wl.check(op, out)
    except Exception:  # a check that raises is a failed output
        return traceback.format_exc(limit=3)


def _git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(root, seed):
    import numpy
    import scipy

    import reebsmooth
    from reebsmooth._core import BACKEND

    return {
        "backend": BACKEND,
        "reebsmooth": reebsmooth.__version__,
        "git_revision": _git_revision(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_plain(wl, seconds):
    latencies, kinds, failures = [], [], []
    k = 0
    while sum(latencies) < seconds:
        for op in wl.ops(k):
            dt, out, error = _timed(wl.run, op)
            latencies.append(dt)
            kinds.append(op[0])
            error = _checked(wl, op, out, error)
            if error is not None:
                failures.append(error)
        k += 1
    return {
        "attempted": len(latencies),
        "failures": failures,
        "latencies": latencies,
        "kinds": kinds,
    }


def run_traced(wl, seconds, tracer_module):
    tracer = tracer_module.Tracer()
    plain_s, traced_s, traced_ids, failures = [], [], [], []
    k = 0
    while sum(plain_s) + sum(traced_s) < seconds:
        for op in wl.ops(k):
            op_id = len(traced_ids)
            traced_first = op_id % 2 == 1
            for traced in (traced_first, not traced_first):
                if not traced:
                    dt, _, error = _timed(wl.run, op)
                    plain_s.append(dt)
                    if error is not None:
                        failures.append(error)
                    continue
                tracer.install()
                try:
                    dt, out, error = _timed(tracer.op, op_id, wl.run, op)
                finally:
                    tracer.uninstall()
                traced_s.append(dt)
                error = _checked(wl, op, out, error)
                if error is not None:
                    failures.append(error)
            traced_ids.append(op_id)
        k += 1
    table = tracer.span_table(traced_ids)
    overhead = sum(traced_s) / sum(plain_s) - 1.0
    return {
        "attempted": len(traced_ids),
        "failures": failures,
        "layers": tracer_module.layer_metrics(table, len(traced_ids), overhead),
        "spans": table,
        "span_records": tracer.spans,
        "traced_s": traced_s,
        "plain_s": plain_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import tracer as tracer_module
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    root = os.getcwd()
    # warm-up: lazy imports and per-mesh caches fill before timing
    _timed(wl.run, wl.ops(0)[0])
    if args.trace:
        result = run_traced(wl, args.seconds, tracer_module)
    else:
        result = run_plain(wl, args.seconds)
    # with tracing off or uninstalled, every name the tracer rebinds must
    # hold the program's own function again
    result["foreign_bindings"] = tracer_module.foreign_bindings()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = dict(provenance(root, args.seed), ops=result["attempted"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
