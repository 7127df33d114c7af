"""Every callable the benchmark's tracer wraps still exists under its name.

The tracer (perfbench/tracing.py) records a target it cannot resolve as
missing and goes on, so a renamed kernel would only show up as per-layer
metrics silently absent from traced runs.  This test installs the tracer
one target at a time and fails on any miss; it edits nothing under
perfbench/.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("target", tracing.TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in tracing.TARGETS])
def test_trace_target_resolves(target):
    with tracing.Tracer(targets=(target,)) as tracer:
        pass
    assert not tracer.missing
