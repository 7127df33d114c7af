import json
import os
from pathlib import Path

import numpy as np
import pytest

from smaevol import asymptotics, constitutive, quasistatic
from smaevol.cli import main, run_scenario
from smaevol.scenario import (ParseError, ValidationError, parse_scenario)


def minimal(kind, **extra):
    return json.dumps({"kind": kind, **extra})


def test_minimal_point_test_fills_defaults():
    s = parse_scenario(minimal("point-test"))
    assert s.kind == "point-test"
    assert s.params.c3 == 1.0
    assert s.params.rho == 0.0
    assert s.params.c2 == 0.5
    assert s.params.R == 0.5
    assert s.grid.steps == 16 and s.grid.nodes[-1] == 1.0
    assert s.seed == 0
    assert s.path.values.shape == (3, 6)


def test_validation_collects_all_errors():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal("point-test",
                               material={"c3": -1.0, "c1": 0.0, "rho": -0.5}))
    msgs = exc.value.errors
    assert any("c3 must be > 0" in m for m in msgs)
    assert any("c1 must be > 0" in m for m in msgs)
    assert any("rho must be >= 0" in m for m in msgs)


def test_every_object_reports_its_violations_together():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal("point-test", material={"c3": -1.0, "G": 0},
                               time={"steps": 0},
                               stress_path={"direction": [1.0] * 5}))
    msgs = exc.value.errors
    for part in ("c3 must be > 0", "G must be > 0", "time:",
                 "6-component tensor"):
        assert any(part in m for m in msgs), part


def test_type_errors_come_before_any_object():
    # a bool is not a count, a numeric string not a number
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal("point-test", time={"steps": True},
                               stress_path={"amplitudes": ["0", "3", "0"]}))
    assert exc.value.errors == ["time.steps must be an integer",
                                "stress_path.amplitudes must be a list of "
                                "numbers"]


def test_unknown_key_named():
    with pytest.raises(ParseError) as exc:
        parse_scenario(minimal("point-test", bogus=1))
    assert "bogus" in str(exc.value)
    with pytest.raises(ParseError) as exc2:
        parse_scenario(minimal("point-test", material={"G": 1.0, "zeta": 2}))
    assert "zeta" in str(exc2.value)


def test_bad_json_position_reported():
    with pytest.raises(ParseError) as exc:
        parse_scenario("{ not json }")
    assert "line 1" in str(exc.value)


def test_bad_kind_rejected():
    with pytest.raises(ValidationError):
        parse_scenario(minimal("frobnicate"))


def test_conv_tau_preconditions():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal("conv-tau"))  # rho defaults to 0
    assert any("rho > 0" in m for m in exc.value.errors)
    s = parse_scenario(minimal("conv-tau", material={"rho": 0.1}))
    assert s.reference_tau == pytest.approx(min(s.taus) / 8)


def test_point_test_run_and_determinism(tmp_path):
    doc = minimal("point-test", time={"T": 1.0, "steps": 12}, seed=7)
    s = parse_scenario(doc)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    m1 = run_scenario(s, out1)
    m2 = run_scenario(parse_scenario(doc), out2)
    assert (out1 / "trajectory.csv").exists()
    assert (out1 / "manifest.json").exists()
    # byte-identical data artifacts across reruns with the same seed
    for name in ("trajectory.csv", "stability_report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert m1["results"]["final_z_norm"] <= 1e-6
    assert m1["results"]["total_dissipation"] > 0.1


def test_trajectory_csv_round_trips(tmp_path):
    s = parse_scenario(minimal("point-test", time={"T": 1.0, "steps": 6}))
    run_scenario(s, tmp_path)
    import csv as csvmod
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0][0] == "t"
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert data.shape == (7, len(rows[0]))
    # the balance residual column respects the one-sided inequality
    assert data[:, -1].max() <= 1e-10


def test_conv_tau_run_emits_rate_table(tmp_path):
    doc = minimal("conv-tau", material={"rho": 0.1},
                  stress_path={"amplitudes": [0.0, 2.2, 0.0],
                               "times": [0.0, 1.0 / 3.0, 1.0]},
                  taus=[1 / 8, 1 / 16, 1 / 32], reference_tau=1 / 256)
    s = parse_scenario(doc)
    manifest = run_scenario(s, tmp_path)
    assert (tmp_path / "rate_table.csv").exists()
    assert manifest["results"]["order"] >= 0.45


def test_gamma_table_run(tmp_path):
    s = parse_scenario(minimal("gamma-table"))
    manifest = run_scenario(s, tmp_path)
    assert manifest["results"]["monotone_exact"]
    assert manifest["results"]["outside_min_last"] > 1e6


def test_bvp_run(tmp_path):
    doc = minimal("bvp-run", material={"rho": 0.1, "nu": 0.01},
                  time={"T": 1.0, "steps": 4}, mesh={"n": 2}, probes=20)
    s = parse_scenario(doc)
    manifest = run_scenario(s, tmp_path)
    assert manifest["results"]["stability_passed"]
    assert manifest["results"]["ledger_peak"] <= manifest["results"]["ledger_bound"]
    assert (tmp_path / "ledger.csv").exists()
    assert (tmp_path / "final_state.txt").exists()


def test_bvp_conv_run(tmp_path):
    doc = minimal("bvp-conv", material={"rho": 0.1, "nu": 0.01},
                  time={"T": 1.0, "steps": 4},
                  schedule={"rho": [0.1, 0.05], "tau": 0.25, "n": 2,
                            "label": "fig3-rho"})
    run_scenario(parse_scenario(doc), tmp_path)
    lines = (tmp_path / "limit_table.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["k", "rho", "nu", "tau", "h"]
    assert len(lines) == 3


def test_cli_dry_run_and_errors(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test"))
    assert main(["point-test", "--scenario", str(path), "--dry-run"]) == 0
    assert "scenario OK" in capsys.readouterr().out
    # kind mismatch
    assert main(["conv-tau", "--scenario", str(path), "--dry-run"]) == 1
    # invalid scenario file
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["point-test", "--scenario", str(bad)]) == 1
    # missing file
    assert main(["point-test", "--scenario", str(tmp_path / "none.json")]) == 1


def test_cli_full_run(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test", time={"T": 1.0, "steps": 4}))
    out = tmp_path / "out"
    assert main(["point-test", "--scenario", str(path), "--out", str(out),
                 "--seed", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "trajectory.csv" in manifest["artifacts"]


_TRACTION = {"traction_amps": [0.0, 1.0], "times": [0.0, 1.0]}

# documents that the run rejects; parsing must reject them as well
BAD_DOCUMENTS = {
    "increasing-rho": ("bvp-conv", {"material": {"rho": 0.1, "nu": 0.01},
                                    "schedule": {"rho": [0.05, 0.1]}}),
    "program-times": ("bvp-run", {"program": {"times": [0, 1, 0.5]}}),
    "traction-on-dirichlet": ("bvp-run", {"program": {
        "traction": {"x0": [1.0, 0.0, 0.0]}, **_TRACTION}}),
    "varying-nu": ("conv-rho", {"schedule": {"rho": [0.1, 0.01],
                                             "nu": [0.02, 0.01]}}),
    "unknown-plane": ("bvp-run", {"program": {
        "traction": {"q9": [1.0, 0.0, 0.0]}, **_TRACTION}}),
    "evolution-varying-nu": ("bvp-conv", {"schedule": {"rho": 0.1,
                                                       "nu": [0.02, 0.01]}}),
    "minproblem-varying-tau": ("bvp-conv", {"study": "minproblem",
                                            "schedule": {"rho": 0.1,
                                                         "tau": [0.5, 0.25]}}),
    "flat-box": ("bvp-run", {"mesh": {"extents": [0, 1, 1]}}),
    "two-extents": ("bvp-run", {"mesh": {"extents": [1, 1]}}),
    "negative-samples": ("gamma-table", {"grid": {"inside": -1}}),
    "fractional-samples": ("gamma-table", {"grid": {"inside": 2.5}}),
    "string-taus": ("conv-tau", {"material": {"rho": 0.1}, "taus": "abc"}),
    "no-rhos": ("gamma-table", {"rhos": []}),
    "string-amplitudes": ("point-test", {"stress_path": {
        "amplitudes": ["zero", "three", "zero"]}}),
    "string-T": ("point-test", {"time": {"T": "x"}}),
    "short-traction": ("bvp-run", {"program": {
        "traction": {"x1": [1.0, 0.0]}, **_TRACTION}}),
    "short-body": ("bvp-run", {"program": {
        "body": [1.0, 0.0], "body_amps": [0.0, 1.0], "times": [0.0, 1.0]}}),
    "negative-tau": ("conv-rho", {"schedule": {"rho": [0.1, 0.01],
                                               "tau": -1}}),
    "no-cells": ("bvp-conv", {"material": {"rho": 0.1, "nu": 0.01},
                              "schedule": {"rho": [0.1, 0.05], "n": 0}}),
    "boolean-steps": ("point-test", {"time": {"steps": True}}),
    # json reads NaN and Infinity as floats and 10**400 as an int beyond any
    # float or count
    "nan-constant": ("point-test", {"material": {"c1": float("nan")}}),
    "infinite-T": ("point-test", {"time": {"T": float("inf")}}),
    "huge-T": ("point-test", {"time": {"T": 10 ** 400}}),
    "huge-steps": ("point-test", {"time": {"steps": 10 ** 400}}),
    # a stress path that starts beyond yield
    "unstable-start": ("point-test", {"stress_path": {"amplitudes": [3, 2, 1]}}),
    "unstable-start-tau": ("conv-tau", {"material": {"rho": 0.1},
                                        "stress_path": {"amplitudes": [3, 2, 1]}}),
    "unstable-start-rho": ("conv-rho", {"schedule": {"rho": [0.1, 0.01]},
                                        "stress_path": {"amplitudes": [3, 2, 1]}}),
}


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_parse_rejects_what_the_run_rejects(name, tmp_path, capsys):
    kind, extra = BAD_DOCUMENTS[name]
    with pytest.raises(ValidationError):
        parse_scenario(minimal(kind, **extra))
    path = tmp_path / "s.json"
    path.write_text(minimal(kind, **extra))
    assert main([kind, "--scenario", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind,extra", [
    ("conv-rho", {"schedule": {"rho": [0.1, 0.01], "tau": 5}}),
    ("conv-tau", {"material": {"rho": 0.1}, "taus": [2.0]})])
def test_a_step_beyond_the_interval_runs_one_step(kind, extra, tmp_path):
    # like the BVP studies, a constitutive study takes max(1, round(T/tau))
    # steps, so a step longer than the stress path is one step
    manifest = run_scenario(parse_scenario(minimal(kind, **extra)), tmp_path)
    table = (tmp_path / manifest["artifacts"][0]).read_text().splitlines()
    assert len(table) == (3 if kind == "conv-rho" else 2)


def test_bvp_time_T_must_be_the_program_end():
    program = {"traction": {"x1": [1.0, 0.0, 0.0]}, **_TRACTION}
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal("bvp-run", time={"T": 2.0}, program=program))
    assert any("time.T" in m for m in exc.value.errors)
    s = parse_scenario(minimal("bvp-run", time={"T": 1.0}, program=program))
    assert s.grid.nodes[-1] == 1.0


def test_bvp_conv_default_tau_spans_the_program(tmp_path, monkeypatch):
    program = {"times": [0.0, 1.0, 2.0], "traction": {"x1": [1.0, 0.0, 0.0]},
               "traction_amps": [0.0, 2.0, 0.0]}
    s = parse_scenario(minimal("bvp-conv", material={"rho": 0.1, "nu": 0.01},
                               time={"steps": 8}, mesh={"n": 1},
                               program=program,
                               schedule={"rho": [0.1, 0.05]}))
    assert s.schedule.tau[0] == 0.25
    steps, run = [], quasistatic.run_incremental_bvp

    def recording_run(space, params, grid, *args, **kwargs):
        steps.append((grid.steps, grid.nodes[-1]))
        return run(space, params, grid, *args, **kwargs)

    monkeypatch.setattr(quasistatic, "run_incremental_bvp", recording_run)
    # one CPU: the members run here, where the recording sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_scenario(s, tmp_path)
    assert len(steps) == 3 and all(st == (8, 2.0) for st in steps)


def test_evolution_manifest_keeps_every_ledger_flag(tmp_path, monkeypatch):
    # a violated ledger bound shows in the manifest as a JSON boolean, the
    # reference's included
    run = asymptotics.spacetime_run

    def flagging_run(problem, rho, nu, tau, n):
        rec, rep = run(problem, rho, nu, tau, n)
        return rec, {**rep, "bound_ok": rep["bound_ok"] if rho == 0.1 else False}

    monkeypatch.setattr(asymptotics, "spacetime_run", flagging_run)
    s = parse_scenario(minimal("bvp-conv", material={"rho": 0.1, "nu": 0.01},
                               time={"steps": 2}, mesh={"n": 1},
                               schedule={"rho": [0.1, 0.05], "n": 1}))
    run_scenario(s, tmp_path)
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["ledger_bound_ok"] == [True, False]
    assert results["nu_in_scope"] == [True, True]
    assert results["reference"]["rho"] == 0.0
    assert results["reference"]["ledger_bound_ok"] is False
    assert results["reference"]["nu_in_scope"] is True
    # each run's total solve_step sweeps, counted in whichever process ran it
    assert [type(c) for c in results["sweeps"]] == [int, int]
    assert results["reference"]["sweeps"] > 0


@pytest.mark.parametrize("kind,section", [("bvp-run", "program"),
                                          ("point-test", "material"),
                                          ("conv-rho", "schedule"),
                                          ("bvp-conv", "mesh")])
def test_non_object_section_is_a_schema_error(kind, section, tmp_path,
                                              capsys):
    # e.g. {"kind": "bvp-run", "program": []}
    text = minimal(kind, **{section: []})
    with pytest.raises(ParseError, match=f"{section} must be a JSON object"):
        parse_scenario(text)
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main([kind, "--scenario", str(path), "--dry-run"]) == 1
    assert f"{section} must be a JSON object" in capsys.readouterr().err


def test_conv_rho_default_tau_spans_the_stress_path(tmp_path, monkeypatch):
    path = {"amplitudes": [0.0, 2.0, 0.0], "times": [0.0, 1.0, 2.0]}
    s = parse_scenario(minimal("conv-rho", time={"steps": 8}, stress_path=path,
                               schedule={"rho": [0.1, 0.05]}))
    assert s.schedule.tau[0] == 0.25
    steps, run = [], constitutive.run_constitutive

    def recording_run(p, path, grid, *args, **kwargs):
        steps.append((grid.steps, grid.nodes[-1]))
        return run(p, path, grid, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "run_constitutive", recording_run)
    run_scenario(s, tmp_path)
    assert steps and all(st == (8, 2.0) for st in steps)


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_shipped_scenarios_pass_dry_run(path):
    kind = json.loads(path.read_text())["kind"]
    assert main([kind, "--scenario", str(path), "--dry-run"]) == 0


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_no_malformed_value_escapes_as_another_error(path):
    # every key of a shipped scenario, set to a value of a wrong type or
    # range, parses or raises ParseError/ValidationError, nothing else
    doc = json.loads(path.read_text())
    for keys in _key_paths(doc):
        for bad in (True, "x", None, [], {}, [1.0, "a"], -1, 0, 2.5):
            d = json.loads(path.read_text())
            target = d
            for k in keys[:-1]:
                target = target[k]
            target[keys[-1]] = bad
            try:
                parse_scenario(json.dumps(d))
            except (ParseError, ValidationError):
                pass
