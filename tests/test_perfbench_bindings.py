"""The benchmark's tracer finds each name it traces bound to the program's own function.

`perfbench/tracer.py` looks up functions by module attribute (for example
`reebsmooth.smoothing.thicken_local`); a refactor that drops or rebinds one
of those names breaks every benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="checkout has no perfbench/")
def test_perfbench_tracer_finds_no_foreign_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.foreign_bindings() == []
