"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so that one op takes well under a second."""
    monkeypatch.setattr(workloads, "POOL", 2)
    monkeypatch.setattr(workloads, "BUILD_TORUS", 6)
    monkeypatch.setattr(workloads, "STABILITY_TRIALS", 1)


def _pool_digest(wl, workdir):
    """Everything a workload hands the program: op tuples and input files."""
    ops = [
        [tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in op) for op in cycle]
        for cycle in wl.pool
    ]
    parts = [repr(ops)]
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            parts.append(name + fh.read())
    return "\n".join(parts).replace(str(workdir), "<dir>")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_in_the_seed(tiny, tmp_path, name):
    cls = workloads.WORKLOADS[name]
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(_pool_digest(cls(seed, str(workdir)), workdir))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_op_runs_and_passes_its_check(tiny, tmp_path, name):
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    for k in range(2):
        for op in wl.ops(k):
            assert wl.check(op, wl.run(op)) is None


def test_build_check_rejects_a_wrong_graph(tiny, tmp_path):
    wl = workloads.ReebBuild(3, str(tmp_path))
    op = wl.ops(0)[1]  # random field: many edges
    assert wl.run(op) == 0
    with open(wl.out_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edges = payload["graph"]["edges"]
    payload["graph"]["edges"] = edges + edges[:1]  # one level crossed twice too often
    with open(wl.out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert wl.check(op, 0) is not None
    assert wl.check(op, 3) == "exit code 3"


def test_stability_check_rejects_a_violation(tiny, tmp_path):
    wl = workloads.StabilitySmooth(3, str(tmp_path))
    op = wl.ops(0)[0]
    report = wl.run(op)
    assert wl.check(op, report) is None
    trial = dict(report["trials"][0], lower_bound=report["trials"][0]["upper_bound"] + 1.0)
    assert wl.check(op, dict(report, trials=[trial])) is not None
    assert wl.check(op, dict(report, all_pass=False)) is not None


def test_tracer_restores_every_name_and_records_spans(tiny, tmp_path):
    wl = workloads.StabilitySmooth(3, str(tmp_path))
    before = tracer.current_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(a is not b for a, b in zip(tracer.current_bindings(), before))
        t.op(0, wl.run, wl.ops(0)[0])
    finally:
        t.uninstall()
    assert all(a is b for a, b in zip(tracer.current_bindings(), before))
    assert tracer.foreign_bindings() == []
    table = t.span_table([0])
    # one trial: two smoothed graphs, then the lower bound between them
    assert table["experiments.run_stability"]["calls"] == 1
    assert table["smoothing.smooth_local"]["calls"] == 2
    assert table["reeb.reeb_graph"]["calls"] == 2
    assert table["diagrams.extended_persistence"]["calls"] == 2
    layers = tracer.layer_metrics(table, 1, 0.0)
    assert list(layers) == list(tracer.PER_LAYER)
    assert layers["core.sweep_s"] > 0
    assert layers["complexes.thick_vertex_ratio"] > 1
    assert layers["diagrams.graph_nodes"] > 0
    # self times partition the op: shares of disjoint span kinds stay below 100 %
    assert sum(v for k, v in layers.items() if k.endswith("_pct")) <= 100.0 + 1e-9


def test_an_installed_tracer_makes_every_name_foreign():
    t = tracer.Tracer()
    t.install()
    try:
        assert len(tracer.foreign_bindings()) == len(tracer.TARGETS)
    finally:
        t.uninstall()
    assert tracer.foreign_bindings() == []


def test_tail_is_the_nearest_rank_p90():
    assert run.tail(list(range(200, 0, -1))) == (180, 20)
    assert run.tail(list(range(1, 13))) == (11, 1)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["run_seconds"] == run.RUN_SECONDS


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "reeb-build",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "reeb-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
