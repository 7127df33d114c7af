"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
them inline).  Tolerances are pinned here, not configurable."""

import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

import oracles
from oracles import planar_step_oracle, solve_bvp_step
from smaevol.asymptotics import (LimitSchedule, gamma_check_F, gamma_radii,
                                 nstep_h_convergence, temporal_error_study)
from smaevol.constitutive import (PointState, StressPath, TimeGrid,
                                  continuous_dependence_check,
                                  incremental_step, run_constitutive,
                                  verify_stability)
from smaevol.fem import (LoadProgram, assemble_forms, box_mesh, build_space,
                         galerkin_project, inject, interp_constrained)
from smaevol.material import MaterialParams, transformation_energy_grad
from smaevol.quasistatic import (BvpProblem, QuasistaticSolver,
                                 run_incremental_bvp, spacetime_run)
from smaevol.tensors import dev_to_sym

P0 = MaterialParams()                      # defaults, sharp (rho = 0)
PS = MaterialParams(rho=0.1)
UNIT = np.zeros(5)
UNIT[0] = 1.0


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"[acceptance] criterion {num:2d}: PASS - {desc}")


def ramp_unload(peak=3.0):
    return StressPath.proportional(dev_to_sym(UNIT), [0.0, peak, 0.0],
                                   [0.0, 0.5, 1.0])


def ramp_unload_offgrid(peak=2.2):
    # the peak sits off every dyadic grid, so the runs carry genuine
    # discretization error instead of being node-exact
    return StressPath.proportional(dev_to_sym(UNIT), [0.0, peak, 0.0],
                                   [0.0, 1.0 / 3.0, 1.0])


def test_criterion_1_single_step_continuous_dependence():
    t0 = time.perf_counter()
    with criterion(1, "single-step continuous dependence at alpha"):
        for p in (P0, PS):
            pairs = []
            for trial in range(100):
                rng = np.random.default_rng(9000 + trial)
                s1 = rng.standard_normal(6) * 1.5
                zb1 = rng.standard_normal(5) * 0.3
                if rng.uniform() < 0.5:
                    s2, zb2 = s1.copy(), rng.standard_normal(5) * 0.3
                else:
                    s2, zb2 = s1 + rng.standard_normal(6) * 1e-3, zb1.copy()
                if p.rho == 0:
                    for zb in (zb1, zb2):
                        n = np.linalg.norm(zb)
                        if n > p.c3:
                            zb *= p.c3 / n
                pairs.append(((s1, zb1), (s2, zb2)))
            rep = continuous_dependence_check(p, pairs, slack=1e-8)
            assert rep.all_ok, [r for r in rep.rows if not r["ok"]][:3]
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_temporal_rate():
    t0 = time.perf_counter()
    with criterion(2, "temporal convergence order >= 0.45"):
        study = temporal_error_study(
            PS, ramp_unload_offgrid(),
            taus=[1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256],
            reference_tau=1 / 2048)
        assert not study.degenerate
        assert study.order is not None and study.order >= 0.45, study.order
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"


def test_criterion_3_energy_inequality_and_gap():
    with criterion(3, "one-sided energy inequality and gap shrink"):
        for p in (P0, PS):
            prev_gap = None
            for n in (16, 32, 64, 128):
                traj = run_constitutive(p, ramp_unload(), TimeGrid.uniform(1.0, n))
                assert traj.residual.max() <= 1e-10, (p.rho, n)
                gap = float(np.abs(traj.residual).max())
                if prev_gap is not None:
                    assert gap <= 0.75 * prev_gap, (p.rho, n, gap, prev_gap)
                prev_gap = gap


def test_criterion_4_stability_certification():
    with criterion(4, "200-probe stability of every incremental state"):
        for p in (P0, PS):
            grid = TimeGrid.uniform(1.0, 16)
            path = ramp_unload()
            traj = run_constitutive(p, path, grid)
            for i in range(grid.steps + 1):
                rep = verify_stability(p, path.value(grid.nodes[i]),
                                       traj.state(i), n_probes=200,
                                       seed=100 + i)
                assert rep.passed, (p.rho, i, rep.worst_violation,
                                    rep.analytic_residual)
        # a constructed perturbed state is flagged
        sigma = dev_to_sym(2.5 * UNIT)
        st = incremental_step(PS, sigma, np.zeros(5))
        bad = PointState(st.eps, st.z + 0.1 * UNIT)
        rep = verify_stability(PS, sigma, bad, n_probes=200, seed=0)
        assert not rep.passed


def test_criterion_5_step_oracle_equivalence():
    with criterion(5, "incremental step matches the planar brute-force oracle"):
        for p in (P0, PS):
            for trial in range(20):
                rng = np.random.default_rng(11000 + trial)
                sigma = rng.standard_normal(6) * 1.5
                z_prev = rng.standard_normal(5) * 0.3
                if p.rho == 0:
                    n = np.linalg.norm(z_prev)
                    if n > p.c3:
                        z_prev *= p.c3 / n
                st = incremental_step(p, sigma, z_prev)
                z_bf, step = planar_step_oracle(p, sigma, z_prev, n=400)
                assert np.linalg.norm(st.z - z_bf) <= 2 * step, (p.rho, trial)


def test_criterion_6_constraint_exactness():
    with criterion(6, "sharp-model transformation strain stays in the ball"):
        # constitutive run pushed well past saturation
        traj = run_constitutive(P0, ramp_unload(peak=4.0),
                                TimeGrid.uniform(1.0, 32))
        assert np.linalg.norm(traj.z, axis=1).max() <= P0.c3 + 1e-14
        # boundary-value run
        p = MaterialParams(rho=0.0, nu=0.01)
        space = build_space(box_mesh((1.0, 1.0, 1.0), (2, 2, 2)), ("x0",))
        prog = LoadProgram(times=[0.0, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                           traction_amps=[0.0, 4.0])
        rec = run_incremental_bvp(space, p, TimeGrid.uniform(1.0, 8), prog)
        assert rec.max_nodal_z_norm() <= p.c3 + 1e-14
        assert rec.max_nodal_z_norm() > 0.9
        # the averaging interpolant preserves the bound on admissible fields
        coarse = build_space(box_mesh((1.0, 1.0, 1.0), (2, 2, 2)), ("x0",))
        fine = build_space(box_mesh((1.0, 1.0, 1.0), (4, 4, 4)), ("x0",))
        for trial in range(50):
            rng = np.random.default_rng(12000 + trial)
            Z = rng.standard_normal((fine.n_nodes, 5))
            Z *= (rng.uniform(0, P0.c3, (fine.n_nodes, 1))
                  / np.linalg.norm(Z, axis=1, keepdims=True))
            out = interp_constrained(coarse, fine, Z.ravel()).reshape(-1, 5)
            assert np.linalg.norm(out, axis=1).max() <= P0.c3 + 1e-12


def test_criterion_7_galerkin_projector():
    with criterion(7, "Galerkin orthogonality and energy inequality"):
        p = MaterialParams(rho=0.1, nu=0.01)
        coarse = build_space(box_mesh((1.0, 1.0, 1.0), (2, 2, 2)), ("x0",))
        fine = build_space(box_mesh((1.0, 1.0, 1.0), (4, 4, 4)), ("x0",))
        forms_f = assemble_forms(fine, p)
        H = forms_f.matrix()
        Pm = inject(coarse, fine)
        Pfull = sp.block_diag([sp.kron(Pm, sp.eye(3)), sp.kron(Pm, sp.eye(5))],
                              format="csr")
        free = np.concatenate([coarse.u_free, np.ones(coarse.n_z, dtype=bool)])
        for trial in range(20):
            rng = np.random.default_rng(13000 + trial)
            u_f = rng.standard_normal(fine.n_u)
            u_f[~fine.u_free] = 0.0
            z_f = rng.standard_normal(fine.n_z)
            uc, zc = galerkin_project(coarse, forms_f, u_f, z_f)
            y = np.concatenate([u_f, z_f])
            yc = np.concatenate([uc, zc])
            resid = (Pfull.T @ (H @ (y - Pfull @ yc)))[free]
            scale = np.linalg.norm((Pfull.T @ (H @ y))[free])
            assert np.linalg.norm(resid) <= 1e-10 * scale
            y_proj = Pfull @ yc
            assert forms_f.energy_value((y_proj[:fine.n_u], y_proj[fine.n_u:])) \
                <= forms_f.energy_value((u_f, z_f)) + 1e-12


def test_criterion_8_superelastic_hysteresis():
    with criterion(8, "superelastic loop closes with positive dissipation"):
        traj = run_constitutive(P0, ramp_unload(peak=3.0),
                                TimeGrid.uniform(1.0, 64))
        assert np.linalg.norm(traj.z[-1]) <= 1e-6
        assert traj.cum_diss[-1] >= 0.1
        # loop closure in the stress-strain output: the strain returns to
        # its initial value when the stress does
        assert np.linalg.norm(traj.eps[-1] - traj.eps[0]) <= 1e-6
        print(f"[acceptance]      criterion 8 recorded dissipation: "
              f"{traj.cum_diss[-1]:.6f}")


def test_criterion_9_monotone_gamma_family():
    with criterion(9, "monotone regularized family and blow-up"):
        rhos = [10.0 ** (-k) for k in range(0, 8)]
        rep = gamma_check_F(P0, rhos, gamma_radii(P0, 40, 10))
        assert rep.monotone_exact
        assert rep.inside_gaps[rhos.index(1e-4)] <= 1e-3
        assert rep.outside_min_last > 1e6


def _consecutive_bvp_diffs(records, spaces, forms_ref_params):
    """Inter-level state differences at shared time nodes, energy norm."""
    diffs = []
    for k in range(len(records) - 1):
        a, b = records[k], records[k + 1]
        fine_space = spaces[k + 1]
        forms = assemble_forms(fine_space, forms_ref_params)
        P = inject(spaces[k], fine_space)
        Pu = sp.kron(P, sp.eye(3), format="csr")
        Pz = sp.kron(P, sp.eye(5), format="csr")
        worst = 0.0
        for i, t in enumerate(a.grid.nodes):
            j = int(np.argmin(np.abs(b.grid.nodes - t)))
            dv = Pu @ a.v[i] - b.v[j]
            dz = Pz @ a.z[i] - b.z[j]
            worst = max(worst, math.sqrt(max(forms.energy_value((dv, dz)), 0.0)))
        diffs.append(worst)
    return diffs


def test_criterion_10_bvp_convergence_tables():
    t0 = time.perf_counter()
    with criterion(10, "BVP convergence arrows and explicit ledger bound"):
        p = MaterialParams(rho=0.1, nu=0.01)
        # two load channels on different time profiles: the load direction
        # rotates in time, so runs are never node-exact and the inter-level
        # differences decay smoothly (a single proportional ramp is sampled
        # identically by successive grids around its peak)
        prog = LoadProgram(times=[0.0, 0.5, 1.0],
                           traction={"x1": [1.0, 0.0, 0.0]},
                           traction_amps=[0.0, 1.5, 3.0],
                           body=[0.6, 0.4, 0.0], body_amps=[0.0, 2.0, 0.0])
        problem = BvpProblem(p, prog)

        def check_bound(rec):
            peak = float((rec.stored_v + rec.cum_diss).max())
            assert peak <= rec.apriori.total + 1e-6 * (1 + rec.apriori.total)

        # Figure-2 arrow: single-step minimum problem under mesh refinement
        t_star = 0.5
        states = []
        spaces2 = []
        for n in (2, 4, 8):
            space = problem.space(n)
            u, z = solve_bvp_step(QuasistaticSolver(space, p),
                                  *prog.at(space, t_star),
                                  np.zeros(space.n_z))
            states.append((u, z))
            spaces2.append(space)
        min_diffs = []
        for k in range(2):
            fine = spaces2[k + 1]
            forms = assemble_forms(fine, p)
            P = inject(spaces2[k], fine)
            du = sp.kron(P, sp.eye(3)) @ states[k][0] - states[k + 1][0]
            dz = sp.kron(P, sp.eye(5)) @ states[k][1] - states[k + 1][1]
            min_diffs.append(math.sqrt(max(forms.energy_value((du, dz)), 0.0)))
        assert min_diffs[1] < min_diffs[0], min_diffs

        # Figure-3 tau arrow: N in {8, 16, 32} on the n = 2 mesh
        recs_tau = []
        for steps in (8, 16, 32):
            rec = spacetime_run(problem, rho=0.1, nu=0.01,
                                tau=1.0 / steps, n=2)
            assert rec.bound_ok
            check_bound(rec)
            recs_tau.append(rec)
        tau_diffs = _consecutive_bvp_diffs(recs_tau,
                                           [r.solver.space for r in recs_tau], p)
        assert tau_diffs[1] < tau_diffs[0], tau_diffs

        # Figure-3 rho arrow at fixed tau, h
        recs_rho = []
        for rho in (0.1, 0.05, 0.025):
            rec = spacetime_run(problem, rho=rho, nu=0.01, tau=1 / 8, n=2)
            assert rec.bound_ok
            check_bound(rec)
            recs_rho.append(rec)
        rho_diffs = _consecutive_bvp_diffs(recs_rho,
                                           [r.solver.space for r in recs_rho], p)
        assert rho_diffs[1] < rho_diffs[0], rho_diffs

        # Figure-3 h arrow: meshes n in {2, 4, 8} at fixed N
        out = nstep_h_convergence(problem, LimitSchedule.of(
            3, rho=p.rho, nu=p.nu, tau=1 / 8, n=[2, 4, 8]))
        for rec in out["runs"]:
            check_bound(rec)
        d01 = out["table"][0]["diffs"]
        d12 = out["table"][1]["diffs"]
        assert float(d12.max()) < float(d01.max()), (d01.max(), d12.max())

        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"
        print(f"[acceptance]      criterion 10 wall time: {elapsed:.1f}s")


def test_criterion_11_gradient_checks():
    with criterion(11, "analytic gradients match central differences"):
        h = 1e-5
        for p in (PS, MaterialParams(rho=0.05)):
            for trial in range(100):
                rng = np.random.default_rng(14000 + trial)
                z = rng.standard_normal(5) * rng.uniform(0, 2 * p.c3 / 2.2)
                g = transformation_energy_grad(p, z)
                from smaevol.material import transformation_energy_smooth
                fd = np.zeros(5)
                for k in range(5):
                    dz = np.zeros(5)
                    dz[k] = h
                    fd[k] = (transformation_energy_smooth(p, z + dz)
                             - transformation_energy_smooth(p, z - dz)) / (2 * h)
                assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))
        # reduced-step smooth gradients
        from smaevol.constitutive import reduced_problem
        for p in (P0, PS):
            for trial in range(100):
                rng = np.random.default_rng(15000 + trial)
                sigma = rng.standard_normal(6)
                zb = rng.standard_normal(5) * 0.2
                pb = reduced_problem(p, sigma, zb)
                z = rng.standard_normal(5) * 0.4
                g = oracles.grad(pb, z)
                fd = np.zeros(5)
                for k in range(5):
                    dz = np.zeros(5)
                    dz[k] = h
                    fd[k] = (oracles.smooth(pb, z + dz)
                             - oracles.smooth(pb, z - dz)) / (2 * h)
                assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))
