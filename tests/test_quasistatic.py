import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import scipy.sparse as sp

from oracles import (colamd_solve_v, dependence_bound_oracle,
                     joint_lu_dual_norms, load_at_oracle, p_norm_sq,
                     solve_bvp_step, stability_bound_oracle,
                     step_smooth_grad)
from smaevol import proxsolve, quasistatic
from smaevol.asymptotics import (LimitSchedule, limit_evolution,
                                 nstep_h_convergence)
from smaevol.constitutive import TimeGrid, UnstableInitialState
from smaevol.fem import (PLANES, LoadProgram, SingularFormError, box_mesh,
                         build_space, nested_dissection)
from smaevol.material import MaterialParams
from smaevol.proxsolve import (NonConvergence, PointProblem, StepProblem,
                               solve_point)
from smaevol.quasistatic import (BvpProblem, QuasistaticSolver, _dual_norms,
                                 run_incremental_bvp, spacetime_run,
                                 verify_energetic)
from smaevol.tensors import Elasticity, dev_split

RNG = np.random.default_rng(53)

P_SMOOTH = MaterialParams(rho=0.1, nu=0.01)
P_SHARP = MaterialParams(rho=0.0, nu=0.01)
MIN_ORDER = 0.45    # the conv-tau gate's least temporal order


def space_n(n):
    return build_space(box_mesh((1.0, 1.0, 1.0), (n, n, n)), ("x0",))


def pull_program(peak=3.0, unload=True):
    if unload:
        return LoadProgram(times=[0.0, 0.5, 1.0],
                           traction={"x1": [1.0, 0.0, 0.0]},
                           traction_amps=[0.0, peak, 0.0])
    return LoadProgram(times=[0.0, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[0.0, peak])


def stretch_x(x):
    return np.array([x[0], 0.0, 0.0])


def stretch_program(gamma=0.05):
    return LoadProgram(times=[0.0, 1.0], dirichlet=stretch_x,
                       dirichlet_amps=[0.0, gamma])


def test_zero_data_gives_zero_state():
    space = space_n(2)
    u, z = solve_bvp_step(QuasistaticSolver(space, P_SMOOTH), np.zeros(space.n_u),
                          np.zeros(space.n_u), np.zeros(space.n_z))
    assert np.linalg.norm(u) < 1e-10
    assert np.linalg.norm(z) < 1e-10


def test_elastic_regime_matches_direct_elasticity():
    # a small stretch keeps z = 0 and u solves pure linear elasticity
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SHARP)
    prog = stretch_program(gamma=0.02)
    u_dir = prog.at(space, 1.0)[0]
    u, z = solve_bvp_step(solver, u_dir, np.zeros(space.n_u),
                          np.zeros(space.n_z))
    assert np.linalg.norm(z) < 1e-9
    # independent oracle: direct sparse solve of K u = 0 with lifting
    free = space.u_free
    K = solver.forms.K.tocsc()
    rhs = -(K @ u_dir)[free]
    u_oracle = u_dir.copy()
    u_oracle[free] += spla.spsolve(K[free][:, free], rhs)
    assert np.linalg.norm(u - u_oracle) <= 1e-8 * (1 + np.linalg.norm(u_oracle))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("elastic", [Elasticity(), Elasticity(G=1.3, kappa=0.4)],
                         ids=["default", "G1.3-kappa0.4"])
def test_nested_dissection_factor_matches_the_colamd_solve(n, elastic):
    space = space_n(n)
    solver = QuasistaticSolver(space, MaterialParams(elastic=elastic))
    order = nested_dissection(space.mesh, ~space.dirichlet_nodes)
    assert np.array_equal(solver.dofs,
                          (3 * order[:, None] + np.arange(3)).ravel())
    for b_u in np.random.default_rng(n).standard_normal((3, space.n_u)):
        v, v_ref = solver.solve_v(b_u), colamd_solve_v(solver, b_u)[0]
        assert np.linalg.norm(v - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
    # the factors are in the given order, without an off-diagonal pivot, and
    # positive pivots of an unpivoted LU certify the symmetric K_ff is SPD
    lu = solver.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.array_equal(lu.perm_c, np.arange(len(solver.dofs)))
    assert np.all(lu.U.diagonal() > 0)


def test_nested_dissection_factor_has_less_fill_than_colamd():
    solver = QuasistaticSolver(space_n(10), P_SMOOTH)
    colamd = colamd_solve_v(solver, np.zeros(solver.space.n_u))[1]
    nd_fill = solver.lu.L.nnz + solver.lu.U.nnz
    assert nd_fill <= 0.85 * (colamd.L.nnz + colamd.U.nnz)


def test_step_objective_decreases_and_long_run_consistency():
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SMOOTH)
    prog = pull_program(unload=False)
    L_u = prog.at(space, 1.0)[1]
    L_z = np.zeros(space.n_z)
    anchor = np.zeros(space.n_z)
    v1, z1, info1 = solver.solve_step(L_u, L_z, anchor, tol=1e-9)
    v2, z2, info2 = solver.solve_step(L_u, L_z, anchor, tol=1e-12)

    def objective(v, z):
        return (solver.stored_energy(v, z) - float(L_u @ v) - float(L_z @ z)
                + solver.dissipation_increment(z, anchor))

    assert objective(v1, z1) <= objective(np.zeros_like(v1), anchor) + 1e-12
    assert abs(objective(v1, z1) - objective(v2, z2)) < 1e-9


class _CountingMatrix:
    """Stands in for a sparse matrix and counts its matrix-vector products."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, x):
        self.products += 1
        return self.A @ x


@pytest.mark.parametrize("p", [P_SMOOTH, P_SHARP], ids=["smooth", "sharp"])
def test_one_z_matrix_product_per_smooth_grad_call(p, monkeypatch):
    space = space_n(2)
    L_u = pull_program(peak=4.0, unload=False).at(space, 1.0)[1]
    L_z, anchor = np.zeros(space.n_z), np.zeros(space.n_z)
    calls = [0]

    def counting_problem(smooth_grad, *rest):
        def evaluate(Z):
            calls[0] += 1
            return smooth_grad(Z)
        return StepProblem(evaluate, *rest)

    solver = QuasistaticSolver(space, p)
    solver.A_z = counting = _CountingMatrix(solver.A_z)
    with monkeypatch.context() as m:
        m.setattr(quasistatic, "StepProblem", counting_problem)
        v, z, info = solver.solve_step(L_u, L_z, anchor)
    assert info["sweeps"] >= 1
    # the value and the gradient of a field share one product
    assert counting.products == calls[0] > 0
    v0, z0, _ = QuasistaticSolver(space, p).solve_step(L_u, L_z, anchor)
    assert np.array_equal(v, v0) and np.array_equal(z, z0)


@pytest.mark.parametrize("p", [P_SMOOTH, P_SHARP], ids=["smooth", "sharp"])
def test_smooth_grad_matches_the_two_pass_closure_bit_for_bit(p, monkeypatch):
    space = space_n(2)
    L_u = pull_program(peak=4.0, unload=False).at(space, 1.0)[1]
    L_z, anchor = np.zeros(space.n_z), np.zeros(space.n_z)
    closures = []

    def capturing_problem(smooth_grad, *rest):
        closures.append(smooth_grad)
        return StepProblem(smooth_grad, *rest)

    solver = QuasistaticSolver(space, p)
    monkeypatch.setattr(quasistatic, "StepProblem", capturing_problem)
    v, z, _ = solver.solve_step(L_u, L_z, anchor)
    # the closure reads the last sweep's right-hand side, the one of v
    b = solver.Cup_T @ v + L_z
    rng = np.random.default_rng(5)
    fields = [z.reshape(-1, 5), np.zeros((space.n_nodes, 5))]
    for scale in (0.1, 0.5, 1.2):
        Z = scale * rng.standard_normal((space.n_nodes, 5))
        Z[::4] = 0.0    # zero rows take the gradient's limit at r = 0
        fields.append(Z)
    for Z in fields:
        got, want = closures[0](Z), step_smooth_grad(solver.A_z, solver.w,
                                                      b, p, Z)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("p", [P_SMOOTH, P_SHARP], ids=["smooth", "sharp"])
def test_step_proxes_only_inside_the_field_solve(p, monkeypatch):
    # each sweep reads its joint residual from the field solve's report on
    # its start iterate, so the step runs no prox of its own
    space = space_n(2)
    L_u = pull_program(peak=4.0, unload=False).at(space, 1.0)[1]
    depth, calls = [0], []
    field_solve, nodal_prox = quasistatic.solve_field, proxsolve.prox_nodal

    def traced_solve(*args, **kwargs):
        depth[0] += 1
        try:
            return field_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    def traced_prox(*args, **kwargs):
        calls.append(depth[0])
        return nodal_prox(*args, **kwargs)

    monkeypatch.setattr(quasistatic, "solve_field", traced_solve)
    monkeypatch.setattr(proxsolve, "prox_nodal", traced_prox)
    _, _, info = QuasistaticSolver(space, p).solve_step(
        L_u, np.zeros(space.n_z), np.zeros(space.n_z))
    assert info["sweeps"] >= 1 and calls and all(d == 1 for d in calls)


def test_single_step_grid_equals_step_call():
    space = space_n(2)
    prog = pull_program(peak=2.0, unload=False)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 1), prog)
    solver = QuasistaticSolver(space, P_SMOOTH)
    u, z = solve_bvp_step(solver, *prog.at(space, 1.0), np.zeros(space.n_z))
    assert np.linalg.norm(rec.u[1] - u) < 1e-7
    assert np.linalg.norm(rec.z[1] - z) < 1e-7


def test_yield_under_ramped_traction():
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 8),
                              pull_program(peak=3.0, unload=False))
    assert rec.max_nodal_z_norm() > 0.05
    assert rec.cum_diss[-1] > 0.0


def test_ledger_bound_holds():
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 8),
                              pull_program())
    peak = float((rec.stored_v + rec.cum_diss).max())
    assert peak <= rec.apriori.total + 1e-9 * (1 + rec.apriori.total)


def test_energy_inequality_one_sided():
    # criterion 3's field form: the ledger's defect stays <= 0 within
    # roundoff, and its largest |.| shrinks by at most 0.56 per halving of
    # tau (measured at most 0.514: the gap is first order; a ledger that
    # counts half the dissipation reads 0.61-0.67)
    space = space_n(2)
    for p in (P_SMOOTH, P_SHARP):
        gaps = []
        for steps in (8, 16, 32):
            rec = run_incremental_bvp(space, p, TimeGrid.uniform(1.0, steps),
                                      pull_program())
            scale = 1.0 + np.abs(rec.stored_v).max()
            assert rec.residual.max() <= 1e-9 * scale
            gaps.append(np.abs(rec.residual).max())
        assert gaps[1] <= 0.56 * gaps[0] and gaps[2] <= 0.56 * gaps[1], p


def test_energy_identity_between_u_and_v_bookkeeping():
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 4),
                              stretch_program(gamma=0.4))
    # W(u,z) - <l,u> = W(v,z) - <L,(v,z)> + q at every node
    lhs = rec.stored_u - rec.load_pair
    rhs = rec.stored_v - rec.L_pair + rec.q
    assert np.allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(lhs).max()))


def test_sharp_model_constraint_exact():
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SHARP, TimeGrid.uniform(1.0, 6),
                              pull_program(peak=4.0, unload=False))
    assert rec.max_nodal_z_norm() <= P_SHARP.c3 + 1e-14
    assert rec.max_nodal_z_norm() > 0.9  # the constraint is actually active


def test_verify_energetic_passes_and_flags():
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 6),
                              pull_program())
    rep = verify_energetic(rec)
    assert rep.passed
    # hand-perturbed record: scale z at one interior node
    bad = rec
    i = 3
    bad.z[i] = bad.z[i] * 1.5 + 0.3
    bad.stored_v[i] = QuasistaticSolver(space, P_SMOOTH).stored_energy(
        bad.v[i], bad.z[i])
    bad.L_pair[i] = float(bad.L_u[i] @ bad.v[i]) + float(bad.L_z[i] @ bad.z[i])
    rep_bad = verify_energetic(bad)
    assert not rep_bad.passed
    assert rep_bad.stability_worst[i] > 1e-6


def step_value(solver, L_u, L_z, anchor, v, z):
    """The step functional anchored at anchor, at the state (v, z)."""
    return (solver.stored_energy(v, z) - float(L_u @ v) - float(L_z @ z)
            + solver.dissipation_increment(z, anchor))


def true_violation(solver, L_u, L_z, v, z):
    """How far (v, z) lies above the minimum of its own step, from a tight
    solve of that step (a lower bound of the exact violation)."""
    v_s, z_s, _ = solver.solve_step(L_u, L_z, z, tol=1e-12)
    return (step_value(solver, L_u, L_z, z, v, z)
            - step_value(solver, L_u, L_z, z, v_s, z_s))


def smooth_z_field(space):
    X = space.mesh.nodes
    return np.stack([np.sin(3.0 * X[:, 0]), X[:, 1], X[:, 0] * X[:, 2],
                     np.cos(X[:, 1]), -X[:, 2]], axis=1).ravel()


def test_smooth_small_z_perturbation_is_flagged():
    # a smooth z-perturbation of size 1e-4 makes a solved state unstable
    # by more than tol, and the certificate flags that state alone
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 6),
                              pull_program())
    i = 3
    rec.z[i] = rec.z[i] + 1e-4 * smooth_z_field(space)
    rep = verify_energetic(rec)
    violation = true_violation(rec.solver, rec.L_u[i], rec.L_z[i], rec.v[i],
                               rec.z[i])
    assert violation > 1e-8
    assert rep.stability_worst[i] >= violation
    assert not rep.passed
    assert np.all(np.delete(rep.stability_worst, i) <= 1e-8)


def test_roundoff_on_the_zero_kink_keeps_a_sharp_state_stable():
    # one sharp pull step leaves z = 0 at some nodes (at all for peak 1.2);
    # z moved off 0 there by 1e-17 still sits on the zero kink, as
    # prox_nodal's check counts it, while 1e-9 is off it and stays certified
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SHARP)
    for peak in (1.2, 2.0):
        L_u, L_z = solver.lifted_load(*pull_program(peak, unload=False).at(
            space, 1.0))
        v, z, _ = solver.solve_step(L_u, L_z, np.zeros(space.n_z))
        zero = proxsolve.row_norms(z.reshape(-1, 5)) == 0.0
        assert zero.any()
        for size in (1e-17, 1e-9):
            Z = z.reshape(-1, 5).copy()
            Z[zero] += size
            bound = solver.stability_bounds(L_u[None], L_z[None], v[None],
                                            Z.ravel()[None])[0]
            if size < 1e-9:
                assert bound <= quasistatic.STABILITY_TOL
            else:
                assert bound >= true_violation(solver, L_u, L_z, v, Z.ravel())


_SOLVERS = {}


def solver_for(n, rho, nu):
    key = (n, rho, nu)
    if key not in _SOLVERS:
        _SOLVERS[key] = QuasistaticSolver(space_n(n), MaterialParams(rho=rho,
                                                                     nu=nu))
    return _SOLVERS[key]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), rho=st.sampled_from([0.0, 0.1]),
       nu=st.sampled_from([0.0, 0.01]), peak=st.floats(0.5, 4.0),
       z_size=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
       v_size=st.sampled_from([0.0, 1e-4, 1e-2]),
       smooth=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stability_bound_dominates_the_true_violation(n, rho, nu, peak, z_size,
                                                      v_size, smooth, seed):
    solver = solver_for(n, rho, nu)
    space = solver.space
    L_u, L_z = solver.lifted_load(*pull_program(peak, unload=False).at(space,
                                                                        1.0))
    v, z, _ = solver.solve_step(L_u, L_z, np.zeros(space.n_z))
    rng = np.random.default_rng(seed)
    dz = smooth_z_field(space) if smooth else rng.standard_normal(space.n_z)
    z = z + z_size * dz
    if rho == 0:
        z = proxsolve.project_ball(z.reshape(-1, 5), solver.params.c3).ravel()
    v = v + v_size * rng.standard_normal(space.n_u) * space.u_free
    bound = solver.stability_bounds(L_u[None], L_z[None], v[None], z[None])[0]
    violation = true_violation(solver, L_u, L_z, v, z)
    scale = 1.0 + abs(step_value(solver, L_u, L_z, z, v, z))
    assert bound >= violation - 1e-12 * scale
    assert bound == pytest.approx(stability_bound_oracle(solver, L_u, L_z, v, z),
                                  rel=1e-9, abs=1e-20)


def nodal_load(solver, rng, size, smooth):
    """(L_u, L_z) of a lumped nodal load density: one random vector at every
    node (smooth) or a random vector per node."""
    m = len(solver.w)
    f = rng.standard_normal(8 if smooth else (m, 8)) * size
    L = solver.w[:, None] * np.broadcast_to(f, (m, 8))
    return L[:, :3].ravel(), L[:, 3:].ravel()


def ball_anchor(solver, rng):
    """An anchor field with rows inside the ball and about a third on it."""
    m, c3 = len(solver.w), solver.params.c3
    e = rng.standard_normal((m, 5))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    r = np.where(rng.random(m) < 0.3, c3, rng.uniform(0.0, c3, m))
    return (e * r[:, None]).ravel()


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2]), rho=st.sampled_from([0.0, 0.1]),
       nu=st.sampled_from([0.0, 0.01]),
       change=st.sampled_from(["load", "anchor", "both"]),
       size=st.floats(0.5, 4.0), smooth=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_field_step_depends_continuously_on_load_and_anchor(n, rho, nu, change,
                                                           size, smooth, seed):
    # two steps whose loads or anchors (or both) differ stay within the
    # single-step bound |dy|^2_P <= |dL|^2_{P^-1} / (4 lam^2)
    # + (2 / lam) R sum_r w_r |da_r|
    solver = solver_for(n, rho, nu)
    rng = np.random.default_rng(seed)
    L_u, L_z = nodal_load(solver, rng, size, smooth)
    anchor = ball_anchor(solver, rng)
    L_u2, L_z2, anchor2 = L_u, L_z, anchor
    if change != "anchor":
        dL_u, dL_z = nodal_load(solver, rng, size / 2.0, smooth)
        L_u2, L_z2 = L_u + dL_u, L_z + dL_z
    if change != "load":
        anchor2 = ball_anchor(solver, rng)
    v, z, _ = solver.solve_step(L_u, L_z, anchor, tol=1e-13)
    v2, z2, _ = solver.solve_step(L_u2, L_z2, anchor2, tol=1e-13)
    lhs = p_norm_sq(solver, v2 - v, z2 - z)
    assert lhs <= dependence_bound_oracle(solver, L_u2 - L_u, L_z2 - L_z,
                                          anchor2 - anchor)


def oracle_bound(rec):
    """(c0, b, total) of the ledger bound from joint-LU dual norms of the
    record's lifted load functionals and of their increments."""
    stacked = [np.concatenate([L_u, L_z]) for L_u, L_z in zip(rec.L_u, rec.L_z)]
    norms = joint_lu_dual_norms(rec.solver, stacked)
    dnorms = joint_lu_dual_norms(rec.solver, [b - a for a, b in
                                              zip(stacked, stacked[1:])])
    c0 = rec.stored_v[0] + norms[0] * math.sqrt(max(rec.stored_v[0], 0.0))
    b = float(norms.max() + dnorms.sum())
    return c0, b, c0 + b * 0.5 * (b + math.sqrt(b * b + 4.0 * max(c0, 0.0)))


def assert_bound_matches_oracle(rec):
    for got, want in zip((rec.apriori.c0, rec.apriori.b, rec.apriori.total),
                         oracle_bound(rec)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_run_and_verify_share_one_solver_and_two_factorizations(monkeypatch):
    inits, shapes = [], []
    init, splu = QuasistaticSolver.__init__, spla.splu

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        inits.append(len(shapes))

    def counting_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    space = space_n(2)
    grid = TimeGrid.uniform(1.0, 4)
    with monkeypatch.context() as m:
        m.setattr(QuasistaticSolver, "__init__", counting_init)
        m.setattr(spla, "splu", counting_splu)
        rec = run_incremental_bvp(space, P_SMOOTH, grid, pull_program())
        verify_energetic(rec)
    # K_ff and the scalar nodal matrix S, which the ledger-bound
    # preconditioner and the stability certificate share, both factored by
    # the constructor: the steps, the certificates and the bound factor
    # nothing, and nothing as large as the joint (u, z) matrix is factored
    assert inits == [2] and len(shapes) == 2
    largest = max(int(space.u_free.sum()), space.n_nodes)
    assert all(rows <= largest for rows, _ in shapes)

    assert rec.apriori.b > 0
    assert_bound_matches_oracle(rec)


def test_a_run_and_its_verification_certify_each_state_once(monkeypatch):
    # the run bounds its start state and keeps that bound; verification
    # bounds only the later states, so stability_bounds makes N + 1
    # solve_P calls over both (the ledger bound's CG makes the others)
    callers = []
    solve_P = QuasistaticSolver.solve_P

    def counting_solve_P(self, r):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve_P(self, r)

    grid = TimeGrid.uniform(1.0, 4)
    monkeypatch.setattr(QuasistaticSolver, "solve_P", counting_solve_P)
    rec = run_incremental_bvp(space_n(2), P_SMOOTH, grid, pull_program())
    rep = verify_energetic(rec)
    assert callers.count("stability_bounds") == grid.steps + 1
    assert set(callers) == {"stability_bounds", "_pcg"}
    # every state's bound keeps its bits, the start state's too
    assert np.array_equal(rep.stability_worst, rec.solver.stability_bounds(
        rec.L_u, rec.L_z, rec.v, rec.z))
    assert rep.stability_worst[0] == rec.start_bound


BODY = np.array([0.0, 0.0, -1.0])
TRACTION = {"x1": np.array([1.0, 0.0, 0.0])}
BOUND_PROGRAMS = {
    "body": dict(body=BODY, body_amps=[0.2, 2.0, 0.5]),
    "traction": dict(traction=TRACTION, traction_amps=[0.3, 2.5, 0.0]),
    "dirichlet": dict(dirichlet=stretch_x, dirichlet_amps=[0.05, 0.3, 0.1]),
    "all": dict(body=BODY, body_amps=[0.2, 1.0, 0.4],
                traction=TRACTION, traction_amps=[0.3, 1.5, 0.0],
                dirichlet=stretch_x, dirichlet_amps=[0.0, 0.05, 0.02]),
    "callable": dict(body=lambda x: np.array([x[1], -x[2], 0.5 * x[0]]),
                     body_amps=[0.0, 2.0, 1.0],
                     traction={"x1": lambda x: np.array([x[1], 0.0, x[2]])},
                     traction_amps=[0.1, 1.0, 0.0]),
    "two-planes": dict(traction={"x1": [1.0, 0.0, 0.0], "y1": [0.0, -0.5, 0.2]},
                       traction_amps=[0.2, 2.0, 0.0]),
}
BOUND_CASES = ([(name, 0.1, 0.01) for name in sorted(BOUND_PROGRAMS)]
               + [("all", rho, nu) for rho, nu in ((0.0, 0.0), (0.0, 0.01),
                                                   (0.1, 0.0))])


@pytest.mark.parametrize("name,rho,nu", BOUND_CASES)
def test_channel_bound_matches_joint_lu(name, rho, nu):
    prog = LoadProgram(times=[0.0, 0.5, 1.0], **BOUND_PROGRAMS[name])
    rec = run_incremental_bvp(space_n(2), MaterialParams(rho=rho, nu=nu),
                              TimeGrid.uniform(1.0, 4), prog)
    assert rec.apriori.c0 > 0 and rec.apriori.b > 0
    assert_bound_matches_oracle(rec)


@pytest.mark.parametrize("name", sorted(BOUND_PROGRAMS))
def test_run_load_data_match_the_per_time_assembly(name):
    # the run sums the channels once; the oracle assembles every time anew
    prog = LoadProgram(times=[0.0, 0.5, 1.0], **BOUND_PROGRAMS[name])
    space = space_n(2)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 4), prog)
    want = {"u_dir": [], "L_u": [], "L_z": []}
    for t in rec.grid.nodes:
        u_dir, ell = load_at_oracle(space, prog, t)
        at_u_dir, at_ell = prog.at(space, t)
        assert np.linalg.norm(at_u_dir - u_dir) <= 1e-14 * np.linalg.norm(u_dir)
        assert np.linalg.norm(at_ell - ell) <= 1e-14 * np.linalg.norm(ell)
        want["u_dir"].append(u_dir)
        want["L_u"].append(ell - rec.solver.forms.K @ u_dir)
        want["L_z"].append(rec.solver.forms.Cup.T @ u_dir)
    for field, rows in want.items():
        got = getattr(rec, field)
        assert np.linalg.norm(got - rows) <= 1e-14 * np.linalg.norm(rows), field


@pytest.mark.parametrize("program", [
    LoadProgram(times=[0.0, 1.0]),
    LoadProgram(times=[0.0, 1.0], traction=TRACTION, traction_amps=[0.0, 0.0],
                body=BODY)])
def test_dual_norms_without_active_channel_are_zero_without_a_solve(
        program, monkeypatch):
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SMOOTH)

    def no_solve(*args, **kwargs):
        raise AssertionError("no solve expected")

    monkeypatch.setattr(quasistatic, "_pcg", no_solve)
    monkeypatch.setattr(spla, "splu", no_solve)
    amps, liftings, loads = program.channels(space, np.linspace(0.0, 1.0, 4))
    assert amps.shape == (0, 4) and liftings.shape == loads.shape == (0, space.n_u)
    Lam_u, Lam_z = solver.lifted_load(liftings.T, loads.T)
    norms, dnorms = _dual_norms(solver, amps, Lam_u, Lam_z)
    assert np.array_equal(norms, np.zeros(4))
    assert np.array_equal(dnorms, np.zeros(3))


def test_runs_and_studies_build_no_kronecker_product(monkeypatch):
    # every linear object is a scalar nodal matrix applied to (m, k) arrays,
    # and a run builds its load data from one call of channels
    krons, channels = [], []
    kron, chans = sp.kron, LoadProgram.channels

    def counting_kron(*args, **kwargs):
        krons.append(1)
        return kron(*args, **kwargs)

    def counting_channels(self, *args, **kwargs):
        channels.append(1)
        return chans(self, *args, **kwargs)

    monkeypatch.setattr(sp, "kron", counting_kron)
    monkeypatch.setattr(LoadProgram, "channels", counting_channels)
    # one CPU: the limit study's members run here, where the counts see them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    prog = LoadProgram(times=[0.0, 0.5, 1.0], **BOUND_PROGRAMS["all"])
    run_incremental_bvp(space_n(2), P_SMOOTH, TimeGrid.uniform(1.0, 4), prog)
    assert len(channels) == 1
    problem = BvpProblem(P_SMOOTH, pull_program(peak=2.5))
    limit_evolution(problem, LimitSchedule.of(2, rho=[0.1, 0.05], nu=0.01,
                                              tau=0.5, n=2))
    nstep_h_convergence(problem, LimitSchedule.of(2, rho=0.1, nu=0.01,
                                                  tau=0.5, n=[1, 2]))
    assert krons == []


def test_record_keeps_each_steps_sweeps(monkeypatch):
    infos, solve_step = [], QuasistaticSolver.solve_step

    def recording(self, *args, **kwargs):
        out = solve_step(self, *args, **kwargs)
        infos.append(out[2]["sweeps"])
        return out

    monkeypatch.setattr(QuasistaticSolver, "solve_step", recording)
    rec = run_incremental_bvp(space_n(1), P_SMOOTH, TimeGrid.uniform(1.0, 4),
                              pull_program())
    # one solve per step; the start state is certified without one
    assert rec.sweeps.tolist() == [0] + infos and len(infos) == 4
    assert sum(infos) > 0


def test_failing_step_is_named(monkeypatch):
    monkeypatch.setattr(quasistatic, "MAX_SWEEPS", 1)
    with pytest.raises(NonConvergence,
                       match=r"^step 1 at t = 0\.25: step stalled .* after 1 "
                             r"sweeps") as err:
        run_incremental_bvp(space_n(2), P_SMOOTH, TimeGrid.uniform(1.0, 4),
                            pull_program())
    msg = str(err.value)
    trail = [float(r) for r in msg.split("joint residuals ")[1].split()]
    last = float(msg.split("joint residual ")[1].split()[0])
    # one sweep ran: its residual, to the two printed precisions
    assert len(trail) == 1 and trail[0] > 0.0
    assert trail[0] == pytest.approx(last, rel=1e-2)


def test_bound_cg_exhaustion_reports_its_residual_trail(monkeypatch):
    monkeypatch.setattr(quasistatic, "CG_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as err:
        run_incremental_bvp(space_n(2), P_SMOOTH, TimeGrid.uniform(1.0, 4),
                            pull_program())
    msg = str(err.value)
    assert "after 1 iterations" in msg
    trail = [float(t) for t in msg.split("relative residuals ")[1].split()]
    assert len(trail) == 2 and trail[0] == 1.0 and 1e-13 < trail[1] < 1.0


def test_verify_energetic_zero_data():
    space = space_n(2)
    prog = LoadProgram(times=[0.0, 1.0])
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 3), prog)
    assert np.all(rec.residual == 0.0)
    assert np.all(rec.stored_v == 0.0)


def test_unstable_initial_state_detected():
    space = space_n(2)
    prog = LoadProgram(times=[0.0, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[3.0, 3.0])  # already yielded at t = 0
    with pytest.raises(UnstableInitialState, match=r"stability bound \d"):
        run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 2), prog)


def test_singular_system_without_dirichlet():
    space = build_space(box_mesh((1.0, 1.0, 1.0), (2, 2, 2)), ())
    with pytest.raises(SingularFormError, match="need a Dirichlet part"):
        QuasistaticSolver(space, P_SMOOTH)


def test_change_of_variables_consistency():
    # solving with lifting u_dir vs. v_dir plus the compensating linear
    # functional gives the same state after shifting back
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SMOOTH)
    prog = stretch_program(gamma=0.35)
    u_dir = prog.at(space, 1.0)[0]
    anchor = np.zeros(space.n_z)
    u_star, z_star = solve_bvp_step(solver, u_dir, np.zeros(space.n_u), anchor)

    v_dir = 0.5 * u_dir  # different lifting of a different boundary value
    w = u_dir - v_dir
    load_u = -(solver.forms.K @ w)
    load_z = solver.forms.Cup.T @ w
    L_u, L_z = solver.lifted_load(v_dir, load_u)
    v, z2, _ = solver.solve_step(L_u, L_z + load_z, anchor)
    v_star = v + v_dir
    assert np.linalg.norm((v_star - v_dir + u_dir) - u_star) < 1e-7
    assert np.linalg.norm(z2 - z_star) < 1e-7


def test_rate_independence_of_record():
    space = space_n(2)
    prog = pull_program(peak=2.5)
    rec = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(1.0, 6), prog)
    # same amplitudes traversed on a rescaled clock
    prog2 = LoadProgram(times=[0.0, 1.0, 2.0], traction={"x1": [1.0, 0.0, 0.0]},
                        traction_amps=[0.0, 2.5, 0.0])
    rec2 = run_incremental_bvp(space, P_SMOOTH, TimeGrid.uniform(2.0, 6), prog2)
    assert np.allclose(rec.z, rec2.z, atol=1e-8)
    assert np.allclose(rec.u, rec2.u, atol=1e-8)


def test_step_continuous_dependence_scaling():
    # halving the data perturbation at least halves the squared state
    # difference: quadratic scaling in the load/boundary channels, first
    # order through the dissipation anchor
    space = space_n(2)
    solver = QuasistaticSolver(space, P_SMOOTH)
    prog = pull_program(peak=2.5, unload=False)
    base_load = prog.at(space, 1.0)[1]
    u0, z0 = solve_bvp_step(solver, np.zeros(space.n_u), base_load,
                            np.zeros(space.n_z))
    rng = np.random.default_rng(8)
    d_ell = rng.standard_normal(space.n_u) * 0.05
    d_anchor = rng.standard_normal(space.n_z) * 0.02
    lhs_sq = []
    for scale in (1.0, 0.5):
        u, z = solve_bvp_step(solver, np.zeros(space.n_u),
                              base_load + scale * d_ell, scale * d_anchor)
        lhs_sq.append(float(np.sum((u - u0) ** 2) + np.sum((z - z0) ** 2)))
    assert lhs_sq[0] > 1e-10  # the perturbation is actually felt
    assert lhs_sq[1] <= 0.55 * lhs_sq[0]


def test_nstep_h_convergence_decreasing():
    problem = BvpProblem(P_SMOOTH, pull_program(peak=2.5, unload=False))
    out = nstep_h_convergence(problem, LimitSchedule.of(
        3, rho=0.1, nu=0.01, tau=1 / 3, n=[1, 2, 4]))
    t = out["table"]
    assert len(t) == 2
    for i in range(4):
        assert t[1]["diffs"][i] <= t[0]["diffs"][i] + 1e-12


def test_spacetime_run_consistency_and_flag():
    problem = BvpProblem(P_SMOOTH, pull_program(peak=2.5))
    rec = spacetime_run(problem, rho=0.1, nu=0.01, tau=0.25, n=2)
    assert rec.bound_ok
    rec0 = run_incremental_bvp(problem.space(2),
                               MaterialParams(rho=0.1, nu=0.01),
                               TimeGrid.uniform(1.0, 4), problem.program)
    assert np.allclose(rec.z, rec0.z, atol=1e-10)
    # a record whose ledger peak exceeds its bound is flagged
    low = replace(rec.apriori, total=0.5 * rec.ledger_peak)
    assert not replace(rec, apriori=low).bound_ok
    # nu = 0 lies outside the joint-limit hypotheses, and the study says so
    out = limit_evolution(problem, LimitSchedule.of(1, rho=0.1, nu=0.0,
                                                    tau=0.5, n=1))
    assert out["rows"][0]["nu_in_scope"] is False
    assert out["reference"]["nu_in_scope"] is False


def test_small_rho_field_solve_converges():
    # a stiff core (curvature (c1 + 6/delta)/rho = 6.1e4) whose penalty the
    # pull activates: every step's field solve converges, the ledger bound
    # holds and the energy inequality stays one-sided
    problem = BvpProblem(P_SMOOTH, pull_program(peak=4.0))
    rec = spacetime_run(problem, rho=1e-3, nu=0.01, tau=0.125, n=2)
    assert rec.grid.steps == 8 and rec.max_nodal_z_norm() > P_SMOOTH.c3
    assert rec.bound_ok
    assert rec.residual.max() <= 1e-9 * (1.0 + np.abs(rec.stored_v).max())


@pytest.mark.parametrize("rho,nu", [(0.1, 0.0), (0.1, 0.01), (0.0, 0.0),
                                    (0.0, 0.01)])
def test_patch_of_a_homogeneous_stretch_is_the_point_step(rho, nu):
    # with all six planes Dirichlet under stretch_x, the field solution is
    # the homogeneous strain e = a(t) e_x (x) e_x with one z at every node:
    # the point step of G |e_dev - z|^2 + F(z) + R |z - z_prev|, that is
    # PointProblem(2G e_dev, c2 + G, R, z_prev), on every node
    p = MaterialParams(rho=rho, nu=nu)
    space = build_space(box_mesh((1.0, 1.0, 1.0), (3, 3, 3)), PLANES)
    prog = LoadProgram(times=[0.0, 0.5, 1.0], dirichlet=stretch_x,
                       dirichlet_amps=[0.0, 2.0, 0.0])
    rec = run_incremental_bvp(space, p, TimeGrid.uniform(1.0, 8), prog)
    kinks = dict(core=p) if rho > 0 else dict(w_zero=p.c1, radius=p.c3)
    G, z = p.elastic.G, np.zeros(5)
    for i, t in enumerate(rec.grid.nodes[1:], start=1):
        strain = np.interp(t, prog.times, prog.dirichlet_amps)
        e_dev = dev_split(np.array([strain, 0.0, 0.0, 0.0, 0.0, 0.0]))[0]
        z = solve_point(PointProblem(2.0 * G * e_dev, p.c2 + G, p.R, z,
                                     **kinks))
        assert np.abs(rec.z[i].reshape(-1, 5) - z).max() <= 1e-6, (i, t)
    assert rec.max_nodal_z_norm() > 0.1     # the stretch transforms


@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_z_step_matrix_is_twice_the_z_block(nu):
    # A_z = 2 z_block() keeps every bit of the scalar nodal matrix written
    # out directly, so the z-step iterates do not move
    space = space_n(2)
    p = MaterialParams(rho=0.1, nu=nu)
    G, c2 = p.elastic.G, p.c2
    direct = 2.0 * (G + c2) * space.M + nu * space.Gs
    assert np.array_equal(QuasistaticSolver(space, p).A_z.toarray(),
                          direct.toarray())


def test_bvp_tau_arrow_has_an_observed_order():
    # acceptance criterion 10's rotating load at n = 2 (never node-exact, so
    # the differences decay smoothly): the sup-in-time energy-norm difference
    # of consecutive tau levels falls at an order of at least MIN_ORDER, by
    # the least-squares fit over the arrow and on each halving of tau
    prog = LoadProgram(times=[0.0, 0.5, 1.0], traction={"x1": [1.0, 0.0, 0.0]},
                       traction_amps=[0.0, 1.5, 3.0], body=[0.6, 0.4, 0.0],
                       body_amps=[0.0, 2.0, 0.0])
    problem = BvpProblem(P_SMOOTH, prog)
    taus = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    recs = [spacetime_run(problem, P_SMOOTH.rho, P_SMOOTH.nu, tau, 2)
            for tau in taus]
    forms = recs[0].solver.forms
    diffs = []
    for a, b in zip(recs, recs[1:]):
        j = b.grid.node_indices(a.grid.nodes).tolist()
        diffs.append(max(math.sqrt(max(forms.energy_value(
            (a.v[i] - b.v[k], a.z[i] - b.z[k])), 0.0))
            for i, k in enumerate(j)))
    fit = float(np.polyfit(np.log(taus[:-1]), np.log(diffs), 1)[0])
    halvings = np.log2(np.array(diffs[:-1]) / diffs[1:])
    assert fit >= MIN_ORDER and halvings.min() >= MIN_ORDER, (diffs, fit)
