"""The benchmark's tracer finds each name it traces bound to the program's own function.

`perfbench/tracer.py` looks up functions by module attribute (for example
`reebsmooth.smoothing.thicken_local`); a refactor that drops or rebinds one
of those names breaks every benchmark run.  Its sweep counter unpacks
`sweep_quotient`'s positional arguments, so a change to their order breaks
the traced run (`perfbench/run.py --trace 1`) too.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from reebsmooth import reeb, smoothing
from reebsmooth.meshes import torus_mesh

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.skipif(not TRACER.exists(), reason="checkout has no perfbench/")
def test_perfbench_tracer_finds_no_foreign_bindings():
    assert _tracer().foreign_bindings() == []


@pytest.mark.skipif(not TRACER.exists(), reason="checkout has no perfbench/")
def test_perfbench_tracer_counts_every_sweep():
    tracer = _tracer()
    X, f = torus_mesh(6, 6)
    t = tracer.Tracer()
    t.install()
    try:
        t.op(0, lambda: reeb.reeb_graph(X, f))
        t.op(1, lambda: smoothing.smooth_local(X, f, np.full(X.n_vertices, 0.2)))
    finally:
        t.uninstall()
    assert tracer.foreign_bindings() == []
    sweeps = [s for s in t.spans if s[0] == "core.sweep_quotient"]
    assert sorted(s[4] for s in sweeps) == [0, 1]
    for *_, counts in sweeps:
        assert counts["levels"] > 0 and counts["window_sum"] > 0
