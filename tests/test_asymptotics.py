import multiprocessing as mp
import os

import numpy as np
import pytest

from smaevol.asymptotics import (LimitSchedule, _beside, gamma_check_F,
                                 limit_constitutive, limit_evolution,
                                 limit_minproblem)
from smaevol.constitutive import StressPath
from smaevol.fem import LoadProgram
from smaevol.material import MaterialParams
from smaevol.proxsolve import NonConvergence
from smaevol.quasistatic import BvpProblem, QuasistaticSolver
from smaevol.tensors import dev_to_sym

RNG = np.random.default_rng(61)

P = MaterialParams()
UNIT = np.zeros(5)
UNIT[0] = 1.0


def sample_points(n_inside=40, n_outside=10):
    e = RNG.standard_normal((n_inside + n_outside, 5))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    radii = np.concatenate([np.linspace(0.0, P.c3, n_inside),
                            np.linspace(1.2 * P.c3, 2.0 * P.c3, n_outside)])
    return e * radii[:, None]


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
    pts = sample_points()
    rhos = [10.0 ** (-k) for k in range(0, 8)]
    rep = gamma_check_F(P, rhos, pts)
    assert rep.monotone_exact
    k_4 = rhos.index(1e-4)
    assert rep.inside_gaps[k_4] <= 1e-3
    assert np.all(np.diff(rep.inside_gaps) <= 0)
    assert rep.outside_min_last > 1e6
    assert np.all(rep.zero_values == 0.0)


def test_gamma_check_requires_decreasing_rhos():
    with pytest.raises(ValueError):
        gamma_check_F(P, [0.1, 0.1], sample_points())


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


def test_limit_evolution_members_beside_the_reference_are_bit_identical(
        monkeypatch):
    # as shipped, the members run in forked children on a multi-CPU host;
    # with one CPU they run in the caller
    problem = pull_problem()
    sched = LimitSchedule.of(3, rho=[0.1, 0.05, 0.025], nu=0.01, tau=1 / 4,
                             n=1, label="fork")
    forks = counted_forks(monkeypatch)
    shipped = limit_evolution(problem, sched)
    assert len(forks) == min(3, spare_cpus())
    forks.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = limit_evolution(problem, sched)
    assert forks == []
    assert shipped["rows"] == serial["rows"]
    assert shipped["reference"] == serial["reference"]
    assert all(r["sweeps"] > 0 for r in shipped["rows"])


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
                       match=r"^step 0 at t = 0: stalled on purpose$"):
        limit_evolution(pull_problem(), sched)
    assert len(forks) == min(2, spare_cpus())
    assert mp.active_children() == []


@pytest.mark.skipif(spare_cpus() < 1, reason="the task would end this process")
def test_a_child_that_dies_without_a_result_is_reported():
    with pytest.raises(RuntimeError, match="exited with code 3"):
        _beside(lambda: None, lambda a: os._exit(3), [0])
    assert mp.active_children() == []
