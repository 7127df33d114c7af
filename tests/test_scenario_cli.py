import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pool_artifacts
from smaevol import asymptotics, cli, constitutive, quasistatic
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


def test_a_point_test_draws_its_probes_once(tmp_path, monkeypatch):
    # the three checked states share one draw of the probe offsets
    made = []

    def philox(*args, **kwargs):
        made.append(args)
        return bit_generator(*args, **kwargs)

    bit_generator = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", philox)
    run_scenario(parse_scenario(minimal("point-test", seed=3)), tmp_path)
    assert made == [(3,)]


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


def test_run_scenario_lays_out_the_trajectory_and_ledger(tmp_path):
    # cli writes both tables from the result's arrays: one row per node
    point = minimal("point-test", time={"T": 1.0, "steps": 4})
    bvp = minimal("bvp-run", material={"rho": 0.1, "nu": 0.01},
                  time={"T": 1.0, "steps": 4}, mesh={"n": 1})
    trajectory = ["t", "eps0", "eps1", "eps2", "eps3", "eps4", "eps5", "z0",
                  "z1", "z2", "z3", "z4", "stored_energy", "cum_dissipation",
                  "work_integral", "balance_residual"]
    ledger = ["t", "stored_energy", "load_pairing", "cum_dissipation",
              "work_sum", "balance_residual", "q", "L_pairing", "max_nodal_z"]
    for doc, name, header in ((point, "trajectory.csv", trajectory),
                              (bvp, "ledger.csv", ledger)):
        run_scenario(parse_scenario(doc), tmp_path / name)
        rows = [ln.split(",") for ln in
                (tmp_path / name / name).read_text().splitlines()]
        assert rows[0] == header
        assert [len(r) for r in rows[1:]] == [len(header)] * 5
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]


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


def test_gamma_table_reads_no_seed(tmp_path):
    # the check runs on radii: a seed changes no byte of the table
    for seed in (0, 3):
        run_scenario(parse_scenario(minimal("gamma-table", seed=seed)),
                     tmp_path / str(seed))
    assert ((tmp_path / "0" / "gamma_table.csv").read_bytes()
            == (tmp_path / "3" / "gamma_table.csv").read_bytes())


def test_gamma_table_without_outside_radii_writes_strict_json(tmp_path):
    # the penalty's breakpoints lie outside the ball, so the blow-up value is
    # finite even when the grid has no outside radii of its own
    s = parse_scenario(minimal("gamma-table",
                               grid={"inside": 5, "outside": 0}))
    run_scenario(s, tmp_path)
    results = json.loads((tmp_path / "manifest.json").read_text(),
                         parse_constant=pool_artifacts._reject)["results"]
    assert results["monotone_exact"]
    assert results["outside_min_last"] > 1e6


def test_a_non_finite_result_fails_the_run(tmp_path, monkeypatch):
    # radii all inside the ball leave the blow-up value inf: the run fails
    # and leaves no manifest that strict JSON parsers would reject
    monkeypatch.setattr(cli, "gamma_radii",
                        lambda p, inside, outside: np.linspace(0.0, p.c3, 5))
    with pytest.raises(ValueError, match="JSON compliant"):
        run_scenario(parse_scenario(minimal("gamma-table")), tmp_path)
    assert not (tmp_path / "manifest.json").exists()


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
    assert main(["--scenario", str(path), "--dry-run"]) == 0
    assert "scenario OK: kind=point-test" in capsys.readouterr().out
    # invalid scenario file
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--scenario", str(bad)]) == 1
    # missing file
    assert main(["--scenario", str(tmp_path / "none.json")]) == 1


def test_the_kind_comes_from_the_document_alone(tmp_path, capsys):
    # a leading kind word is an argument argparse does not know
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test"))
    with pytest.raises(SystemExit) as exc:
        main(["point-test", "--scenario", str(path), "--dry-run"])
    assert exc.value.code == 2
    # the output directory comes from --out alone
    path.write_text(minimal("point-test", out="x"))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    assert "unknown key 'out' in scenario" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_cannot_be_read(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b"\xff")
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario: ")
    assert "Traceback" not in err


def test_an_allocation_that_fails_names_its_section(tmp_path, capsys,
                                                    monkeypatch):
    # a huge time.steps asks TimeGrid.uniform for more memory than there is;
    # raising MemoryError stands in for it, since a host that overcommits
    # memory may grant a real huge request and then kill the process
    def refuse(cls, T, steps):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(constitutive.TimeGrid, "uniform", classmethod(refuse))
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test", time={"steps": 10 ** 11}))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert "time: Unable to allocate 745. GiB" in err
    assert len(err.splitlines()) == 1


# rho = 1e-110 is below material.RHO_FLOOR, 1e-100 above it
_TINY_RHO = {
    "point-test": lambda rho: {"material": {"rho": rho}},
    "gamma-table": lambda rho: {"rhos": [1.0, rho]},
    "conv-rho": lambda rho: {"schedule": {"rho": [0.1, rho]}},
    "bvp-conv": lambda rho: {"material": {"rho": 0.1, "nu": 0.01},
                             "schedule": {"rho": [0.1, rho]}},
}


@pytest.mark.parametrize("kind", list(_TINY_RHO))
def test_a_rho_below_the_floor_fails_the_dry_run(kind, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(minimal(kind, **_TINY_RHO[kind](1e-110)))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert "rho" in err and ">= 2.8e-103" in err
    path.write_text(minimal(kind, **_TINY_RHO[kind](1e-100)))
    assert main(["--scenario", str(path), "--dry-run"]) == 0


@pytest.mark.parametrize("kind", ["point-test", "conv-tau"])
@pytest.mark.parametrize("rho", [1e-100, 10 ** -69.35])
def test_a_tiny_rho_point_run_finishes(kind, rho, tmp_path):
    # above the multiplier root at such a rho a Newton step is exactly half
    # of mu; taken as a step, it let mu crawl down one bit a step until the
    # root's step cap ran out (NonConvergence)
    manifest = run_scenario(
        parse_scenario(minimal(kind, material={"rho": rho})), tmp_path)
    for name in manifest["artifacts"]:
        _, *rows = (tmp_path / name).read_text().splitlines()
        cells = [c for row in rows for c in row.split(",")]
        assert rows and all(c in ("true", "false") or math.isfinite(float(c))
                            for c in cells), name
    if kind == "point-test":
        # the unloaded states at t = 0 and 1 pass; the saturated one at
        # t = 0.5 is not checked: its penalty force needs |z| - c3 far
        # below one ulp of c3, so no float state has a small residual
        _, first, _, last = (tmp_path / "stability_report.csv").read_text() \
            .splitlines()
        assert first.endswith(",true") and last.endswith(",true")


def test_cli_full_run(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test", time={"T": 1.0, "steps": 4},
                            seed=3))
    out = tmp_path / "out"
    assert main(["--scenario", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["artifacts"] == ["trajectory.csv", "stability_report.csv"]
    # without --out the run writes to the current directory
    monkeypatch.chdir(out)
    (out / "manifest.json").unlink()
    assert main(["--scenario", str(path)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_a_negative_seed_fails_before_any_run(tmp_path, capsys, dry_run):
    path = tmp_path / "s.json"
    path.write_text(minimal("point-test", seed=-1))
    out = tmp_path / "out"
    argv = ["--scenario", str(path), "--out", str(out)]
    assert main(argv + ["--dry-run"] * dry_run) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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
    # a member grid that does not nest in the reference grid: no table
    # compares its states with the reference's at other times
    "non-nesting-rho": ("conv-rho", {"schedule": {"rho": [0.1, 0.01],
                                                  "tau": [0.25, 0.2]}}),
    "non-nesting-tau": ("conv-tau", {"material": {"rho": 0.1}, "taus": [0.25],
                                     "reference_tau": 0.03}),
    "non-nesting-evolution": ("bvp-conv", {"material": {"rho": 0.1, "nu": 0.01},
                                           "schedule": {"rho": 0.1,
                                                        "tau": [0.25, 0.2]}}),
    # the levels of an nstep-h study share one (rho, nu, tau)
    "nstep-h-varying-schedule": ("bvp-conv", {"study": "nstep-h", "schedule": {
        "rho": [0.1, 0.001], "nu": [0.5, 0], "tau": [0.5, 0.01], "n": [1, 2]}}),
    # a minimization at the end of the default program, whose loads are back
    # to 0 there: every member and the reference would be the zero state
    "minproblem-unloaded": ("bvp-conv", {"study": "minproblem",
                                         "material": {"rho": 0.1, "nu": 0.01},
                                         "schedule": {"rho": [0.1, 0.05],
                                                      "n": 2}}),
    # a Dirichlet stretch that vanishes on the Dirichlet plane x0 moves no
    # Dirichlet dof, so this program loads nothing at T either
    "minproblem-unloaded-dirichlet": ("bvp-conv", {
        "study": "minproblem", "material": {"rho": 0.1, "nu": 0.01},
        "program": {"times": [0.0, 1.0], "dirichlet_profile": "stretch_x",
                    "dirichlet_amps": [0.0, 2.0]},
        "schedule": {"rho": [0.1, 0.05], "n": 2}}),
}


@pytest.mark.parametrize("name", list(BAD_DOCUMENTS))
def test_parse_rejects_what_the_run_rejects(name, tmp_path, capsys):
    kind, extra = BAD_DOCUMENTS[name]
    with pytest.raises(ValidationError):
        parse_scenario(minimal(kind, **extra))
    path = tmp_path / "s.json"
    path.write_text(minimal(kind, **extra))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_an_unstable_start_reports_its_residual_and_bound():
    kind, extra = BAD_DOCUMENTS["unstable-start"]
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal(kind, **extra))
    number = r"(\d\.\d{2}e[+-]\d\d)"
    (msg,) = exc.value.errors
    m = re.search(rf"stability residual {number}, bound {number}\)$", msg)
    assert float(m[1]) > float(m[2]) > 0.0


@pytest.mark.parametrize("name", ["non-nesting-rho", "non-nesting-tau",
                                  "non-nesting-evolution"])
def test_dry_run_names_the_tau_that_does_not_nest(name, tmp_path, capsys):
    kind, extra = BAD_DOCUMENTS[name]
    path = tmp_path / "s.json"
    path.write_text(minimal(kind, **extra))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    assert "tau 0.25 grid does not nest" in capsys.readouterr().err


def test_dry_run_says_the_minproblem_loads_vanish(tmp_path, capsys):
    for name in ("minproblem-unloaded", "minproblem-unloaded-dirichlet"):
        kind, extra = BAD_DOCUMENTS[name]
        path = tmp_path / "s.json"
        path.write_text(minimal(kind, **extra))
        assert main(["--scenario", str(path), "--dry-run"]) == 1
        assert "the loads vanish at t = T = 1" in capsys.readouterr().err


_POOL_DOCUMENTS = {**pool_artifacts.STUDIES,
                   "loaded-start": pool_artifacts.LOADED_START,
                   "sharp-pull": pool_artifacts.SHARP_PULL,
                   "gamma-edge": pool_artifacts.GAMMA_EDGE,
                   **{f"c2-{name}": doc
                      for name, doc in pool_artifacts.C2_POINT.items()},
                   **{f"probe-edge-{name}": doc
                      for name, doc in pool_artifacts.PROBE_EDGE.items()}}


@pytest.mark.parametrize("name", list(_POOL_DOCUMENTS))
def test_pool_artifact_documents_parse(name):
    # a document that stopped parsing would drop out of the byte diff
    doc = _POOL_DOCUMENTS[name]
    assert parse_scenario(json.dumps(doc)).kind == doc["kind"]


def test_run_rejects_a_member_grid_that_does_not_nest():
    # past the parser, the study checks nesting before it runs: conv-rho
    # tau 0.25 against reference tau 0.1 would compare t = 0.25 with t = 0.2
    s = parse_scenario(minimal("conv-rho", schedule={"rho": [0.1, 0.01],
                                                     "tau": 0.1}))
    schedule = asymptotics.LimitSchedule.of(2, rho=[0.1, 0.01],
                                            tau=[0.25, 0.2])
    with pytest.raises(ValueError, match="tau 0.25 grid does not nest"):
        asymptotics.limit_constitutive(s.params, s.path, schedule)


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


def test_nstep_h_levels_run_at_the_schedule(tmp_path, monkeypatch, capsys):
    # every level runs at the schedule's one (rho, nu, tau); a schedule that
    # varies them fails the dry run instead of being ignored
    kind, extra = BAD_DOCUMENTS["nstep-h-varying-schedule"]
    path = tmp_path / "s.json"
    path.write_text(minimal(kind, **extra))
    assert main(["--scenario", str(path), "--dry-run"]) == 1
    assert "the nstep-h study fixes rho" in capsys.readouterr().err
    seen, run = [], quasistatic.run_incremental_bvp

    def recording_run(space, params, grid, *args, **kwargs):
        seen.append((params.rho, params.nu, grid.steps))
        return run(space, params, grid, *args, **kwargs)

    monkeypatch.setattr(quasistatic, "run_incremental_bvp", recording_run)
    # one CPU: the levels run here, where the recording sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    s = parse_scenario(minimal("bvp-conv", study="nstep-h",
                               material={"rho": 0.1, "nu": 0.01},
                               schedule={"rho": 0.05, "nu": 0.02, "tau": 0.5,
                                         "n": [1, 2]}))
    run_scenario(s, tmp_path / "out")
    assert seen == [(0.05, 0.02, 2)] * 2


def test_evolution_manifest_keeps_every_ledger_flag(tmp_path, monkeypatch):
    # a violated ledger bound shows in the manifest as a JSON boolean, the
    # reference's included
    run = quasistatic.spacetime_run

    def flagging_run(problem, rho, nu, tau, n):
        rec = run(problem, rho, nu, tau, n)
        if rho == 0.1:
            return rec
        # a bound under the ledger peak: the record's bound_ok is False
        low = replace(rec.apriori, total=0.5 * rec.ledger_peak)
        return replace(rec, apriori=low)

    monkeypatch.setattr(quasistatic, "spacetime_run", flagging_run)
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
    assert main(["--scenario", str(path), "--dry-run"]) == 1
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
    assert main(["--scenario", str(path), "--dry-run"]) == 0


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
