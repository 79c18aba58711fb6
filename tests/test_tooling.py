"""The benchmark's tracer must still find every library function it wraps."""

import importlib.util
from pathlib import Path

from momentprop import _kernels

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    # perfbench/run.py reads both when it records the run's metadata.
    assert callable(_kernels.run_steps)
    assert hasattr(_kernels, "HAVE_NUMBA")
