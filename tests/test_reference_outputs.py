"""A sample of benchmark pool scenarios still passes the benchmark's gate.

The gate (perfbench/gate.py) compares every artifact with the outputs
recorded in perfbench/reference, within a column-scaled RTOL; without this
test a drift would only show up in a benchmark run.  One scenario of each
point-paths kind (gamma-table, conv-tau, point-test, conv-rho), one
bvp-conv study and one bvp-fine run (n = 10) run through ``run_scenario``
here.  The bvp-fine run is the only case in which field nodes leave the
transformation ball, so it pins the nodal constraint penalty beyond c3
(the bvp-conv study's nodes all stay inside).  The test reads perfbench/
and edits nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from smaevol.cli import run_scenario
from smaevol.scenario import parse_scenario

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")

CASES = [
    ("point-paths", workloads.pool("point-paths")[0]),
    ("point-paths", workloads.point_ops(0)[0]),
    ("point-paths", workloads.point_ops(0)[1]),
    ("point-paths", workloads.point_ops(0)[2]),
    ("bvp-schedule", workloads.pool("bvp-schedule")[0]),
    ("bvp-fine", workloads.pool("bvp-fine")[0]),
]


@pytest.mark.parametrize("workload,scenario", CASES,
                         ids=[s["kind"] for _, s in CASES])
def test_pool_scenario_passes_the_gate(workload, scenario, tmp_path):
    reference = gate.load_references(workload)[workloads.key(scenario)]
    manifest = run_scenario(parse_scenario(json.dumps(scenario)), tmp_path)
    verdict = gate.check(manifest, tmp_path, reference["artifacts"])
    assert verdict.problems == []
