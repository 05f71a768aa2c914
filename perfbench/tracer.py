"""Span tracing for the benchmark's traced run, from outside the program.

`Tracer.install` rebinds, in the current process only, the module and class
attributes through which one reebsmooth layer calls the next; `uninstall`
puts every original object back.  A process that never installs a tracer
runs the program's own functions untouched, so tracing costs nothing when it
is off.

Each wrapped call records one span (name, start, end, parent span, op id) in
memory.  A span's self time is its duration minus the durations of its direct
child spans.  Counters are read from the wrapped calls' arguments and return
values.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np


def _sweep_counts(args, kwargs, out):
    min_rank, max_rank, pair_a, pair_b, n_levels = args
    lo = np.asarray(min_rank, dtype=np.int64)
    hi = np.asarray(max_rank, dtype=np.int64)
    pa = np.asarray(pair_a, dtype=np.int64)
    pb = np.asarray(pair_b, dtype=np.int64)
    pair_windows = np.minimum(hi[pa], hi[pb]) - np.maximum(lo[pa], lo[pb]) + 1
    return {
        "levels": int(n_levels),
        "window_sum": int((hi - lo + 1).sum()),
        "pair_window_sum": int(pair_windows.sum()),
        "skeleton_nodes": len(out[0]),
        "skeleton_arcs": len(out[2]),
    }


def _graph_counts(args, kwargs, out):
    return {"final_nodes": out.n_nodes, "final_edges": out.n_edges}


def _thicken_counts(args, kwargs, out):
    return {
        "thick_simplices": out.complex.simplex_count(),
        "thick_vertices": out.complex.n_vertices,
        "base_vertices": args[0].n_vertices,
    }


def _diagram_counts(args, kwargs, out):
    return {"points": len(out.points), "graph_nodes": args[0].n_nodes}


def _lp_counts(args, kwargs, out):
    return {"lp_vars": args[0].support_size * args[1].support_size}


def _dump_counts(args, kwargs, out):
    return {"bytes_out": os.path.getsize(args[1])}


def _stability_counts(args, kwargs, out):
    trials = out["trials"]
    return {"trials": len(trials), "meshes": len({t["mesh"] for t in trials})}


# (owner, attribute, span name, counter).  The owner is a module path, or a
# module path plus a class name after ':'.  A name listed under several
# owners (the same function imported into several modules) is one span kind.
TARGETS = (
    ("reebsmooth.cli", "main", "cli.main", None),
    ("reebsmooth.cli", "load_off", "fileio.load_off", None),
    ("reebsmooth.cli", "dump_json", "fileio.dump_json", _dump_counts),
    ("reebsmooth.cli", "reeb_graph", "reeb.reeb_graph", _graph_counts),
    ("reebsmooth.reeb", "reeb_graph", "reeb.reeb_graph", _graph_counts),
    ("reebsmooth.reeb", "sweep_quotient", "core.sweep_quotient", _sweep_counts),
    ("reebsmooth.complexes:SimplicialComplex", "validate", "complexes.validate", None),
    ("reebsmooth.complexes:SimplicialComplex", "domain_diameter", "complexes.domain_diameter", None),
    ("reebsmooth.smoothing", "thicken_local", "complexes.thicken", _thicken_counts),
    ("reebsmooth.smoothing", "thicken_global", "complexes.thicken", _thicken_counts),
    ("reebsmooth.smoothing", "reeb_graph", "reeb.reeb_graph", _graph_counts),
    ("reebsmooth.smoothing", "dtm_field", "measures.radius_field", None),
    ("reebsmooth.smoothing", "kdist_field", "measures.radius_field", None),
    ("reebsmooth.smoothing:SmoothingFactor", "resolve", "smoothing.resolve", None),
    ("reebsmooth.experiments", "run_stability", "experiments.run_stability", _stability_counts),
    ("reebsmooth.experiments", "reeb_graph", "reeb.reeb_graph", _graph_counts),
    ("reebsmooth.experiments", "smooth_local", "smoothing.smooth_local", None),
    ("reebsmooth.experiments", "wasserstein2", "measures.wasserstein2", _lp_counts),
    ("reebsmooth.experiments", "kernel_distance", "measures.kernel_distance", None),
    ("reebsmooth.experiments", "interleaving_lower_bound", "diagrams.interleaving_lower_bound", None),
    ("reebsmooth.diagrams", "interleaving_lower_bound", "diagrams.interleaving_lower_bound", None),
    ("reebsmooth.diagrams", "extended_persistence", "diagrams.extended_persistence", _diagram_counts),
    ("reebsmooth.diagrams", "bottleneck", "diagrams.bottleneck", None),
)

ROOT_SPAN = "bench.op"
# attribute set on every wrapper, so that a leaked wrapper can be told apart
TRACED_MARK = "perfbench_span"


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def current_bindings():
    """The object each target name is bound to right now, in TARGETS order."""
    return [getattr(_owner(path), attr) for path, attr, _, _ in TARGETS]


def foreign_bindings():
    """Target names not bound to the program's own function, as `owner.attr`.

    A name is foreign if it holds a tracer wrapper, holds a function from
    outside reebsmooth, or differs (`is not`) from another target of the same
    attribute name, which is the same function imported into several modules.
    """
    foreign = []
    first = {}
    for (path, attr, _, _), obj in zip(TARGETS, current_bindings()):
        module = getattr(obj, "__module__", None) or ""
        own = not hasattr(obj, TRACED_MARK) and module.startswith("reebsmooth.")
        if not own or first.setdefault(attr, obj) is not obj:
            foreign.append(f"{path}.{attr}")
    return foreign


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self._saved = []
        self.op_id = None

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        setattr(traced, TRACED_MARK, name)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name, counter in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id, fn, *args):
        """Run fn(*args) under a root span for one benchmark op."""
        self.op_id = op_id
        try:
            return self._wrap(ROOT_SPAN, fn, None)(*args)
        finally:
            self.op_id = None

    def span_table(self, op_ids):
        """Per span name: calls, inclusive seconds, self seconds, summed counts."""
        keep = set(op_ids)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op_id, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for i, (name, start, end, parent, op_id, counts) in enumerate(self.spans):
            if op_id not in keep:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                row["counts"][key] = row["counts"].get(key, 0) + value
        return table


# Per-layer metrics of the traced run: name -> unit.  `core.` is the sweep
# kernel package `reebsmooth._core` (a metric name may not start with `_`).
# Times of layers that every workload crosses are seconds per op.  Layers that
# only some workloads reach report their self time as a share of the traced op
# time instead, so that a layer a workload never calls reads 0 % rather than a
# constant 0 s.
PER_LAYER = {
    "core.sweep_s": "s",
    "core.levels": "count",
    "core.window_sum": "count",
    "core.pair_window_sum": "count",
    "core.sweep_ns_per_window": "ns",
    "core.skeleton_nodes": "count",
    "core.skeleton_arcs": "count",
    "reeb.self_s": "s",
    "reeb.final_nodes": "count",
    "reeb.final_edges": "count",
    "reeb.keep_frac": "frac",
    "complexes.thicken_pct": "%",
    "complexes.thick_simplices": "count",
    "complexes.thick_vertex_ratio": "ratio",
    "complexes.validate_pct": "%",
    "complexes.diameter_pct": "%",
    "complexes.diameter_calls": "count",
    "smoothing.smooth_pct": "%",
    "smoothing.resolve_pct": "%",
    "measures.radius_field_pct": "%",
    "measures.w2_pct": "%",
    "measures.w2_lp_vars": "count",
    "measures.kernel_distance_pct": "%",
    "diagrams.ext_pers_pct": "%",
    "diagrams.bottleneck_pct": "%",
    "diagrams.points": "count",
    "diagrams.graph_nodes": "count",
    "fileio.load_pct": "%",
    "fileio.dump_pct": "%",
    "fileio.bytes_out": "bytes",
    "cli.self_pct": "%",
    "experiments.self_pct": "%",
    "experiments.trials": "count",
    "experiments.trial_mesh_mix": "count",
    "trace.overhead_frac": "frac",
}

# share metric -> the span kinds whose self time it sums
_SHARES = {
    "complexes.thicken_pct": ("complexes.thicken",),
    "complexes.validate_pct": ("complexes.validate",),
    "complexes.diameter_pct": ("complexes.domain_diameter",),
    "smoothing.smooth_pct": ("smoothing.smooth_local",),
    "smoothing.resolve_pct": ("smoothing.resolve",),
    "measures.radius_field_pct": ("measures.radius_field",),
    "measures.w2_pct": ("measures.wasserstein2",),
    "measures.kernel_distance_pct": ("measures.kernel_distance",),
    "diagrams.ext_pers_pct": ("diagrams.extended_persistence",),
    "diagrams.bottleneck_pct": ("diagrams.bottleneck",),
    "fileio.load_pct": ("fileio.load_off",),
    "fileio.dump_pct": ("fileio.dump_json",),
    "cli.self_pct": ("cli.main",),
    "experiments.self_pct": ("experiments.run_stability",),
}


def layer_metrics(table, n_ops, overhead_frac):
    """PER_LAYER values (per op) from a span_table over n_ops traced ops."""

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / n_ops

    def count(name, key):
        return table.get(name, {}).get("counts", {}).get(key, 0) / n_ops

    op_s = table[ROOT_SPAN]["total_s"] / n_ops
    window_sum = count("core.sweep_quotient", "window_sum")
    skeleton = count("core.sweep_quotient", "skeleton_nodes")
    base = count("complexes.thicken", "base_vertices")
    values = {
        "core.sweep_s": self_s("core.sweep_quotient"),
        "core.levels": count("core.sweep_quotient", "levels"),
        "core.window_sum": window_sum,
        "core.pair_window_sum": count("core.sweep_quotient", "pair_window_sum"),
        "core.sweep_ns_per_window": (
            1e9 * self_s("core.sweep_quotient") / window_sum if window_sum else 0.0
        ),
        "core.skeleton_nodes": skeleton,
        "core.skeleton_arcs": count("core.sweep_quotient", "skeleton_arcs"),
        "reeb.self_s": self_s("reeb.reeb_graph"),
        "reeb.final_nodes": count("reeb.reeb_graph", "final_nodes"),
        "reeb.final_edges": count("reeb.reeb_graph", "final_edges"),
        "reeb.keep_frac": (
            count("reeb.reeb_graph", "final_nodes") / skeleton if skeleton else 0.0
        ),
        "complexes.thick_simplices": count("complexes.thicken", "thick_simplices"),
        "complexes.thick_vertex_ratio": (
            count("complexes.thicken", "thick_vertices") / base if base else 0.0
        ),
        "complexes.diameter_calls": table.get("complexes.domain_diameter", {}).get("calls", 0)
        / n_ops,
        "measures.w2_lp_vars": count("measures.wasserstein2", "lp_vars"),
        "diagrams.points": count("diagrams.extended_persistence", "points"),
        "diagrams.graph_nodes": count("diagrams.extended_persistence", "graph_nodes"),
        "fileio.bytes_out": count("fileio.dump_json", "bytes_out"),
        "experiments.trials": count("experiments.run_stability", "trials"),
        "experiments.trial_mesh_mix": count("experiments.run_stability", "meshes"),
        "trace.overhead_frac": overhead_frac,
    }
    for metric, names in _SHARES.items():
        values[metric] = 100.0 * sum(self_s(n) for n in names) / op_s
    return {name: values[name] for name in PER_LAYER}
