import math
import multiprocessing as mp
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

import oracles
from smaevol import asymptotics, constitutive
from smaevol.asymptotics import (LimitSchedule, _beside, gamma_check_F,
                                 gamma_radii, limit_constitutive,
                                 limit_evolution, limit_minproblem,
                                 nstep_h_convergence, temporal_error_study)
from smaevol.constitutive import StressPath
from smaevol.fem import LoadProgram
from smaevol.material import MaterialParams
from smaevol.proxsolve import NonConvergence
from smaevol.quasistatic import BvpProblem, QuasistaticSolver
from smaevol.tensors import dev_to_sym

P = MaterialParams()
UNIT = np.zeros(5)
UNIT[0] = 1.0


def ramp_path(peak=3.0):
    return StressPath.proportional(dev_to_sym(UNIT), [0.0, peak, 0.0],
                                   [0.0, 0.5, 1.0])


def pull_problem(nu=0.01, rho=0.1, peak=3.0):
    prog = LoadProgram(times=[0.0, 0.5, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[0.0, peak, 0.0])
    return BvpProblem(MaterialParams(rho=rho, nu=nu), prog)


def monotone_pull_problem(nu=0.01, rho=0.1, peak=3.0):
    prog = LoadProgram(times=[0.0, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[0.0, peak])
    return BvpProblem(MaterialParams(rho=rho, nu=nu), prog)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LimitSchedule.of(3, rho=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        LimitSchedule.of(3, n=[4, 2, 2])
    s = LimitSchedule.of(3, rho=[0.1, 0.05, 0.025], tau=0.25, label="b")
    assert s.varies("rho") and not s.varies("tau")


def test_gamma_family_monotone_and_blowup():
    rhos = [10.0 ** (-k) for k in range(0, 8)]
    rep = gamma_check_F(P, rhos, gamma_radii(P, 40, 10))
    assert rep.monotone_exact
    k_4 = rhos.index(1e-4)
    assert rep.inside_gaps[k_4] <= 1e-3
    assert np.all(np.diff(rep.inside_gaps) <= 0)
    assert rep.outside_min_last > 1e6
    assert np.all(rep.zero_values == 0.0)


def test_gamma_check_requires_decreasing_rhos():
    with pytest.raises(ValueError):
        gamma_check_F(P, [0.1, 0.1], gamma_radii(P, 40, 10))


def test_gamma_radii_hold_the_penalty_breakpoints():
    # the penalty changes pieces at c3, c3 + delta and c3 + 2 delta
    p = replace(P, delta=0.05)
    radii = gamma_radii(p, 40, 10)
    assert np.isin([p.c3, p.c3 + p.delta, p.c3 + 2.0 * p.delta], radii).all()
    assert np.all(np.diff(radii) > 0)
    assert len(radii) == 40 + 10 + 2


def test_limit_constitutive_rho_arrow():
    # rho decreasing at fixed tau: differences to the sharp run vanish.
    # The worst node is the one sampling the activation stress exactly,
    # where the smooth-sharp gap scales like (rho^2/2)^(1/3); the observed
    # values sit well under 4 rho^(2/3).
    sched = LimitSchedule.of(4, rho=[0.1, 0.01, 0.001, 1e-4], tau=1 / 16,
                             label="fig1-b")
    out = limit_constitutive(P, ramp_path(), sched)
    diffs = np.array([r["state_diff"] for r in out["rows"]])
    assert all(np.diff(diffs) < 0)
    assert np.all(diffs <= 4.0 * sched.rho ** (2.0 / 3.0))
    assert out["reference"]["rho"] == 0.0


def test_limit_constitutive_tau_arrow():
    # error plateaus are possible when successive grids sample the stress
    # peak equally well, so monotonicity is asserted non-strictly
    sched = LimitSchedule.of(3, rho=0.1, tau=[1 / 8, 1 / 16, 1 / 32],
                             label="fig1-a")
    path = StressPath.proportional(dev_to_sym(UNIT), [0.0, 2.2, 0.0],
                                   [0.0, 1.0 / 3.0, 1.0])
    out = limit_constitutive(P, path, sched)
    diffs = [r["state_diff"] for r in out["rows"]]
    assert all(np.diff(diffs) <= 1e-12)
    assert diffs[-1] < 0.8 * diffs[0]


def test_state_diff_maps_the_member_nodes_in_one_pass():
    # the sup over the member's nodes of the state difference at the
    # reference node of the same time, as the per-node argmin loop had it
    path = ramp_path()
    ref = constitutive.run_constitutive(replace(P, rho=0.1), path,
                                        constitutive.TimeGrid.with_step(1.0, 1 / 64))
    member = constitutive.run_constitutive(replace(P, rho=0.1), path,
                                           constitutive.TimeGrid.with_step(1.0, 1 / 8))
    want = 0.0
    for i, t in enumerate(member.grid.nodes):
        j = oracles.node_index_argmin(ref.grid.nodes, t)
        want = max(want, math.sqrt(
            float(np.sum((member.eps[i] - ref.eps[j]) ** 2))
            + float(np.sum((member.z[i] - ref.z[j]) ** 2))))
    assert asymptotics._sup_state_diff(member, ref) == want > 0.0
    with pytest.raises(ValueError, match="t = 0.015625 is not a node"):
        asymptotics._sup_state_diff(ref, constitutive.run_constitutive(
            replace(P, rho=0.1), path, constitutive.TimeGrid.with_step(1.0, 0.1)))


def test_limit_constitutive_constant_schedule_is_zero():
    sched = LimitSchedule.of(2, rho=0.1, tau=1 / 8, label="const")
    out = limit_constitutive(P, ramp_path(), sched)
    for r in out["rows"]:
        assert r["state_diff"] <= 1e-9
        assert r["energy_diff"] <= 1e-9


def test_limit_minproblem_h_arrow():
    problem = monotone_pull_problem()
    sched = LimitSchedule.of(2, rho=0.1, nu=0.01, tau=0.0, n=[1, 2],
                             label="fig2-h")
    out = limit_minproblem(problem, sched)
    diffs = [r["state_diff"] for r in out["rows"]]
    assert diffs[0] > 1e-4  # the study is not vacuous
    assert diffs[1] < diffs[0]


def test_limit_minproblem_rho_arrow():
    problem = monotone_pull_problem()
    sched = LimitSchedule.of(3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=0.0, n=2,
                             label="fig2-rho")
    out = limit_minproblem(problem, sched)
    diffs = [r["state_diff"] for r in out["rows"]]
    assert diffs[0] > 1e-4
    assert all(np.diff(diffs) < 0)


def test_limit_minproblem_rejects_loads_that_vanish_at_T(monkeypatch):
    # the pull-unload program is back to 0 at T = 1, where the study solves
    inits, init = [], QuasistaticSolver.__init__

    def counted(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuasistaticSolver, "__init__", counted)
    sched = LimitSchedule.of(2, rho=[0.1, 0.05], nu=0.01, tau=0.0, n=2)
    # so is a stretch along x, which is 0 on the Dirichlet plane x0
    stretch = BvpProblem(P, LoadProgram(
        times=[0.0, 1.0], dirichlet=lambda x: np.array([x[0], 0.0, 0.0]),
        dirichlet_amps=[0.0, 2.0]))
    for problem in (pull_problem(), stretch):
        with pytest.raises(ValueError, match="the loads vanish at t = T = 1,"):
            limit_minproblem(problem, sched)
    assert inits == []


def test_limit_minproblem_constant_is_zero():
    problem = monotone_pull_problem()
    sched = LimitSchedule.of(2, rho=0.1, nu=0.01, tau=0.0, n=2, label="const")
    out = limit_minproblem(problem, sched)
    for r in out["rows"]:
        assert r["state_diff"] <= 1e-7
        assert r["energy_diff"] <= 1e-7


def test_limit_evolution_tau_arrow():
    problem = pull_problem()
    sched = LimitSchedule.of(3, rho=0.1, nu=0.01, tau=[1 / 4, 1 / 8, 1 / 16],
                             n=2, label="fig3-tau")
    out = limit_evolution(problem, sched)
    diffs = [r["state_diff"] for r in out["rows"]]
    assert all(np.diff(diffs) < 0)
    assert all(r["ledger_bound_ok"] for r in out["rows"])


def test_limit_tables_energy_and_dissipation_track_states():
    # energy differences vanish together with state differences (bounded
    # ratio, recorded), and the dissipation column is Cauchy-decreasing
    problem = pull_problem()
    sched = LimitSchedule.of(3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=1 / 8,
                             n=2, label="fig3-rho")
    out = limit_evolution(problem, sched)
    ratios = [r["energy_diff"] / r["state_diff"] for r in out["rows"]
              if r["state_diff"] > 0]
    assert ratios and max(ratios) < 50.0
    diss = [r["diss_diff"] for r in out["rows"]]
    assert all(np.diff(diss) <= 1e-12)


def test_limit_evolution_rho_arrow():
    problem = pull_problem()
    sched = LimitSchedule.of(3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=1 / 8,
                             n=2, label="fig3-rho")
    out = limit_evolution(problem, sched)
    diffs = [r["state_diff"] for r in out["rows"]]
    assert diffs[0] > 1e-4
    assert all(np.diff(diffs) < 0)


def test_limit_evolution_rejects_varying_nu():
    problem = pull_problem()
    sched = LimitSchedule.of(2, rho=0.1, nu=[0.02, 0.01], tau=1 / 8, n=2)
    with pytest.raises(ValueError):
        limit_evolution(problem, sched)


def spare_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1
    return cpus - 1


def counted_forks(monkeypatch):
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


# each BVP study with its problem and three members beside its reference
BVP_STUDIES = {
    "evolution": (limit_evolution, pull_problem, LimitSchedule.of(
        3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=1 / 4, n=1, label="fork")),
    "minproblem": (limit_minproblem, monotone_pull_problem, LimitSchedule.of(
        3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=0.0, n=[1, 1, 2])),
    "nstep-h": (nstep_h_convergence, pull_problem, LimitSchedule.of(
        4, rho=0.1, nu=0.01, tau=1 / 2, n=[1, 2, 3, 4])),
}


def plain(table):
    """A study's rows or table with its arrays as lists, for ==."""
    return [{k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in row.items()} for row in table]


@pytest.mark.parametrize("study", list(BVP_STUDIES))
def test_members_beside_the_reference_are_bit_identical(study, monkeypatch):
    # as shipped, the members run in forked children on a multi-CPU host;
    # with one CPU they run in the caller
    run, make_problem, sched = BVP_STUDIES[study]
    problem = make_problem()
    forks = counted_forks(monkeypatch)
    shipped = run(problem, sched)
    assert len(forks) == min(3, spare_cpus())
    forks.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = run(problem, sched)
    assert forks == []
    rows = "table" if study == "nstep-h" else "rows"
    assert len(shipped[rows]) == 3
    assert plain(shipped[rows]) == plain(serial[rows])
    if study == "nstep-h":
        assert all(r["diffs"].max() > 0 for r in shipped["table"])
    else:
        assert shipped["reference"] == serial["reference"]
        assert all(r["state_diff"] > 0 for r in shipped["rows"])
    if study == "evolution":
        assert all(r["sweeps"] > 0 for r in shipped["rows"])


@pytest.mark.parametrize("kind", ["conv-tau", "conv-rho"])
def test_constitutive_studies_never_fork(kind, monkeypatch):
    # a constitutive member takes milliseconds, less than a fork costs
    forks = counted_forks(monkeypatch)
    if kind == "conv-tau":
        study = temporal_error_study(MaterialParams(rho=0.1), ramp_path(),
                                     [1 / 8, 1 / 16])
        assert len(study.errors) == 2
    else:
        out = limit_constitutive(P, ramp_path(), LimitSchedule.of(
            3, rho=[0.1, 0.01, 0.001], tau=1 / 8))
        assert len(out["rows"]) == 3
    assert forks == []


@pytest.mark.parametrize("failing", ["member", "reference"])
def test_limit_evolution_failure_names_the_step(monkeypatch, failing):
    # a NonConvergence in a member's child, or in the caller's reference run,
    # reaches the caller with its step and time; no child is left behind
    solve_step = QuasistaticSolver.solve_step

    def stalling(self, *args, **kwargs):
        if (self.params.rho == 0.0) == (failing == "reference"):
            raise NonConvergence("stalled on purpose")
        return solve_step(self, *args, **kwargs)

    monkeypatch.setattr(QuasistaticSolver, "solve_step", stalling)
    forks = counted_forks(monkeypatch)
    sched = LimitSchedule.of(2, rho=[0.1, 0.05], nu=0.01, tau=1 / 4, n=1)
    with pytest.raises(NonConvergence,
                       match=r"^step 1 at t = 0\.25: stalled on purpose$"):
        limit_evolution(pull_problem(), sched)
    assert len(forks) == min(2, spare_cpus())
    assert mp.active_children() == []


@pytest.mark.skipif(spare_cpus() < 1, reason="the task would end this process")
def test_a_child_that_dies_without_a_result_is_reported():
    # the pool reports a dead worker as BrokenProcessPool, a RuntimeError
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        _beside(lambda: None, lambda a: os._exit(3), [0])
    assert mp.active_children() == []


def test_consecutive_calls_each_fork_and_leave_no_thread(monkeypatch):
    # a thread left behind would send the next call down the serial path,
    # as a bvp-schedule pass runs three studies one after another
    forks, threads = counted_forks(monkeypatch), threading.active_count()
    args = [1, 2, 3]
    for _ in range(3):
        forks.clear()
        assert _beside(lambda: "main", lambda a: a * a, args) \
            == ("main", [1, 4, 9])
        assert len(forks) == min(len(args), spare_cpus())
        assert threading.active_count() == threads


@pytest.mark.parametrize("study", ["evolution", "constitutive", "rate",
                                   "minproblem", "nstep-h"])
def test_a_grid_that_does_not_nest_fails_before_any_run(study, monkeypatch):
    runs = []

    def counted(module, name):
        real = getattr(module, name)

        def run(*args, **kwargs):
            runs.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    counted(asymptotics, "spacetime_run")
    counted(asymptotics, "run_constitutive")
    counted(constitutive, "run_constitutive")
    counted(QuasistaticSolver, "__init__")
    # tau 0.25 puts a node at t = 0.25, which the reference grid lacks: tau
    # 0.1 for the schedule, 1/33 for the rate study's reference tau 0.03
    schedule = LimitSchedule.of(2, rho=[0.1, 0.05], tau=[0.25, 0.2])
    # the studies that do not step in time, or fix tau, reject the schedule
    # for what it varies: a minimization varies no tau, nstep-h no rho
    match = {"minproblem": "the minproblem study fixes tau",
             "nstep-h": "the nstep-h study fixes rho"}.get(
                 study, "the tau 0.25 grid does not nest")
    with pytest.raises(ValueError, match=match):
        if study == "evolution":
            limit_evolution(pull_problem(), schedule)
        elif study == "constitutive":
            limit_constitutive(P, ramp_path(), schedule)
        elif study == "minproblem":
            limit_minproblem(pull_problem(), LimitSchedule.of(
                2, rho=0.1, nu=0.01, tau=[0.25, 0.2], n=2))
        elif study == "nstep-h":
            nstep_h_convergence(pull_problem(), LimitSchedule.of(
                2, rho=[0.1, 0.05], nu=0.01, tau=0.25, n=[1, 2]))
        else:
            temporal_error_study(MaterialParams(rho=0.1), ramp_path(),
                                 [0.5, 0.25], reference_tau=0.03)
    assert runs == []
