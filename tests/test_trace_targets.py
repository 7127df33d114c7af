"""Every callable the benchmark's tracer wraps exists under its name, and
the tracer sees the BVP calls.

The tracer (perfbench/tracing.py) records a target it cannot resolve as
missing and goes on, so a renamed kernel would only show up as per-layer
metrics silently absent from traced runs.  These tests install the tracer
one target at a time and fail on any miss, and count the spans of a small
bvp-run and bvp-conv evolution, whose fem and quasistatic calls are imported
at call time, and the one stacked stability check of a point-test; they
edit nothing under perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from smaevol import cli, scenario

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


def test_bvp_spans_are_counted_where_the_fe_layer_is_imported_lazily(
        tmp_path):
    # cli, scenario and asymptotics reach fem and quasistatic at call time,
    # so the tracer's wrappers there must still see every call: a count
    # that reads 0 would pass test_trace_target_resolves
    docs = {"run": {"kind": "bvp-run", "mesh": {"n": 1},
                    "time": {"steps": 2}},
            "conv": {"kind": "bvp-conv", "material": {"rho": 0.1, "nu": 0.01},
                     "time": {"steps": 2}, "mesh": {"n": 1},
                     "schedule": {"rho": [0.1, 0.05], "n": 1}}}
    calls = {}
    with tracing.Tracer() as tracer:
        for name, doc in docs.items():
            mark = tracer.mark()
            cli.run_scenario(scenario.parse_scenario(json.dumps(doc)),
                             tmp_path / name)
            calls[name] = tracer.span_totals(mark)[1]
    assert not tracer.missing
    assert calls["run"]["cli.write"] == 2     # ledger.csv, final_state.txt
    assert calls["run"]["quasistatic.verify"] == 1
    assert calls["conv"]["fem.inject"] >= 1
    assert calls["conv"]["asymptotics.limit"] == 1
    assert calls["conv"]["asymptotics.member"] >= 1


def test_a_point_test_checks_its_states_in_one_traced_call(tmp_path):
    # the three states of a point-test are one verify_stability call, so
    # the benchmark's span still times every check
    doc = {"kind": "point-test", "time": {"steps": 8}}
    with tracing.Tracer() as tracer:
        mark = tracer.mark()
        cli.run_scenario(scenario.parse_scenario(json.dumps(doc)), tmp_path)
    assert not tracer.missing
    calls = tracer.span_totals(mark)[1]
    assert calls["constitutive.verify_stability"] == 1
    assert calls["constitutive.run"] == 1
