"""Self-tests of the benchmark: metric names, seeding, gate and traced counts.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import hostspeed
import run
import tracing
import worker
import workloads
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# two cheap pool operations with recorded references
CHEAP_OPS = [workloads.gamma_table(workloads.GAMMA_SEEDS[0]),
             workloads.point_ops(0)[1]]


def _runner(out, references):
    runner = worker.Runner(out, references)
    texts = [json.dumps(d) for d in CHEAP_OPS]
    return runner, texts


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == tracing.PER_LAYER


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_seeded_parse_and_have_references(name):
    from smaevol.scenario import parse_scenario
    store = gate.load_references(name)
    drawn = set()
    for seed in range(40):
        ops = workloads.ops(name, seed)
        assert ops == workloads.ops(name, seed)
        for d in ops:
            parse_scenario(json.dumps(d))
            assert workloads.key(d) in store
            drawn.add(workloads.key(d))
        for d in workloads.warmup_ops(name, seed):
            parse_scenario(json.dumps(d))
    assert len(drawn) > len(workloads.ops(name, 0))


def test_traced_pass_emits_every_per_layer_metric(work_dir):
    runner, texts = _runner(work_dir, gate.load_references("point-paths"))
    passes, tracer = worker.measure(runner, CHEAP_OPS, texts, 0.0, trace=1)
    layers, unstable = worker.per_layer(passes)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert unstable == []
    assert runner.failed == 0 and runner.attempted == len(passes) * len(CHEAP_OPS)
    assert layers["cli.csv_identical"] == 3
    assert layers["cli.output_drift"] == 0.0
    assert layers["constitutive.point_steps"] == CHEAP_OPS[1]["time"]["steps"]
    assert not tracer.missing
    # the tracer restored every wrapped attribute
    import scipy.sparse.linalg
    import smaevol.proxsolve
    assert not hasattr(smaevol.proxsolve.prox_nodal, "__wrapped__")
    assert not hasattr(scipy.sparse.linalg.splu, "__wrapped__")


def _perturbed(references, scale):
    """Copy of references with one gamma-table value scaled."""
    refs = json.loads(json.dumps(references))
    entry = refs[workloads.key(CHEAP_OPS[0])]["artifacts"]
    lines = entry["gamma_table.csv"].split("\r\n")
    cells = lines[2].split(",")
    cells[2] = format(float(cells[2]) * scale, ".17g")
    lines[2] = ",".join(cells)
    entry["gamma_table.csv"] = "\r\n".join(lines)
    return refs


def test_perturbed_reference_counts_as_failure(work_dir):
    refs = _perturbed(gate.load_references("point-paths"), 1.0 + 1e-3)
    runner, texts = _runner(work_dir, refs)
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        passes, _ = worker.measure(runner, CHEAP_OPS, texts, 0.0, trace=0,
                                   sampler=sampler)
    finally:
        sampler.stop()
    assert runner.failed == len(passes)
    assert "gamma_table.csv: drift" in runner.problems[0]
    result = {"passes": passes, "peak_rss_mb": 1.0, "failed": runner.failed,
              "attempted": runner.attempted}
    assert run.end_to_end(result, [1.0])["passed_frac"] == pytest.approx(0.5)


def test_drift_within_tolerance_is_reported_not_failed(work_dir):
    refs = _perturbed(gate.load_references("point-paths"), 1.0 + 1e-9)
    runner, texts = _runner(work_dir, refs)
    rec = worker.run_pass(runner, CHEAP_OPS, texts)
    assert runner.failed == 0
    assert 0.0 < rec["gate"]["cli.output_drift"] <= gate.RTOL
    assert rec["gate"]["cli.csv_identical"] == 2


def test_manifest_invariant_violation_is_a_failure(work_dir):
    manifest = {"kind": "conv-tau", "artifacts": [],
                "results": {"order": 0.3, "degenerate": False}}
    verdict = gate.check(manifest, work_dir, {})
    assert not verdict.ok and "temporal order" in verdict.problems[0]


def test_run_refuses_without_the_program(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(BENCH, work_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "point-paths", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=work_dir, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_window_removes_bursts_and_scales():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    sampler.samples = [(1.0, ref), (2.0, 3.0 * ref), (9.0, 100.0)]
    assert sampler.spent(0.5, 5.0) == pytest.approx(4.0 * ref)
    assert sampler.slowdown(0.5, 5.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        sampler.slowdown(3.0, 5.0)
