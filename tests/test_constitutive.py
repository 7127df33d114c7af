import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import (closed_form_stability_residual, first_order_residual,
                     path_dissipation, planar_step_oracle, reparametrized)
from smaevol import constitutive
from smaevol.asymptotics import temporal_error_study
from smaevol.constitutive import (PointState, StressPath, TimeGrid,
                                  UnstableInitialState,
                                  continuous_dependence_check,
                                  incremental_step, run_constitutive,
                                  stability_residual, verify_stability)
from smaevol.material import (MaterialParams, radial_core,
                              stored_energy_density)
from smaevol.proxsolve import (EPS, RESIDUAL_RTOL, STABILITY_TOL,
                               NonConvergence, point_residuals)
from smaevol.tensors import dev_split, dev_to_sym, norm

RNG = np.random.default_rng(31)

P0 = MaterialParams()            # sharp
PS = MaterialParams(rho=0.1)

UNIT_DEV = np.zeros(5)
UNIT_DEV[0] = 1.0


def ramp_unload_path(peak=3.0, T=1.0):
    return StressPath.proportional(dev_to_sym(UNIT_DEV), [0.0, peak, 0.0],
                                   [0.0, T / 2, T])


def rate_path():
    # peak off the dyadic grids and below the saturation stress, so the
    # discrete runs carry genuine time-discretization error; a monotone
    # radial ramp with the peak on every grid is node-exact for this scheme
    return StressPath.proportional(dev_to_sym(UNIT_DEV), [0.0, 2.2, 0.0],
                                   [0.0, 1.0 / 3.0, 1.0])


def test_step_zero_data():
    st = incremental_step(P0, np.zeros(6), np.zeros(5))
    assert np.allclose(st.eps, 0.0, atol=1e-12)
    assert np.allclose(st.z, 0.0, atol=1e-12)


def test_step_elastic_regime():
    # 0 is optimal iff sigma_dev lies in the (c1 + R) ball; check both via
    # the solver and by evaluating the reduced objective on a test sphere
    sigma = dev_to_sym(1.4 * UNIT_DEV)  # |sigma_dev| = 1.4 <= c1 + R = 1.5
    st = incremental_step(P0, sigma, np.zeros(5))
    assert np.allclose(st.z, 0.0, atol=1e-9)
    assert np.allclose(st.eps, P0.elastic.apply_inverse(sigma), atol=1e-9)
    b = dev_split(sigma)[0]
    for _ in range(100):
        e = RNG.standard_normal(5)
        e /= np.linalg.norm(e)
        for t in (1e-3, 1e-2, 0.1):
            val = P0.c1 * t + P0.c2 * t * t - t * float(b @ e) + P0.R * t
            assert val >= 0.0  # objective at 0 is 0


def test_step_inelastic_proportional_matches_1d_brute_force():
    sigma = dev_to_sym(2.0 * UNIT_DEV)
    st = incremental_step(PS, sigma, np.zeros(5))
    ts = np.arange(0.0, PS.c3 + 2 * PS.delta, 1e-5)
    vals = radial_core(PS, ts)[0] + PS.c2 * ts ** 2 - 2.0 * ts + PS.R * ts
    t_star = ts[np.argmin(vals)]
    assert np.linalg.norm(st.z - t_star * UNIT_DEV) <= 2e-5
    # minimizer stays on the loading ray
    assert abs(np.linalg.norm(st.z) - float(st.z @ UNIT_DEV)) <= 1e-9


def test_step_oracle_random_instances():
    for p in (P0, PS):
        for trial in range(6):
            rng = np.random.default_rng(1000 + trial)
            sigma = rng.standard_normal(6) * 1.2
            z_prev = rng.standard_normal(5) * 0.25
            if p.rho == 0:
                n = np.linalg.norm(z_prev)
                if n > p.c3:
                    z_prev *= p.c3 / n
            st = incremental_step(p, sigma, z_prev)
            z_bf, step = planar_step_oracle(p, sigma, z_prev)
            assert np.linalg.norm(st.z - z_bf) <= 2 * step


def test_step_rejects_infeasible_anchor():
    with pytest.raises(ValueError):
        incremental_step(P0, np.zeros(6), 1.5 * UNIT_DEV)


def test_run_zero_path():
    grid = TimeGrid.uniform(1.0, 8)
    path = StressPath(np.array([0.0, 1.0]), np.zeros((2, 6)))
    traj = run_constitutive(P0, path, grid)
    assert np.allclose(traj.eps, 0.0)
    assert np.allclose(traj.z, 0.0)
    assert traj.cum_diss[-1] == 0.0
    assert np.allclose(traj.residual, 0.0, atol=1e-15)


def test_run_single_step_equals_direct_call():
    sigma = dev_to_sym(2.0 * UNIT_DEV)
    path = StressPath(np.array([0.0, 1.0]), np.vstack([np.zeros(6), sigma]))
    traj = run_constitutive(PS, path, TimeGrid.uniform(1.0, 1))
    st = incremental_step(PS, sigma, np.zeros(5))
    assert np.allclose(traj.z[1], st.z, atol=1e-12)
    assert np.allclose(traj.eps[1], st.eps, atol=1e-12)


def test_superelastic_loop_closes():
    grid = TimeGrid.uniform(1.0, 200)
    traj = run_constitutive(P0, ramp_unload_path(), grid)
    peak_z = np.linalg.norm(traj.z, axis=1).max()
    assert peak_z >= 0.9  # loading drives the state to the constraint
    assert np.linalg.norm(traj.z[-1]) <= 1e-6
    assert traj.cum_diss[-1] > 0.1
    # strain returns to zero with the stress: closed hysteresis loop
    assert np.linalg.norm(traj.eps[-1]) <= 1e-6


def test_constraint_exact_for_sharp_model():
    grid = TimeGrid.uniform(1.0, 60)
    traj = run_constitutive(P0, ramp_unload_path(peak=4.0), grid)
    assert np.linalg.norm(traj.z, axis=1).max() <= P0.c3 + 1e-14


def test_unstable_initial_state_raises():
    # a path that has already yielded at t = 0: |dev sigma0| = 3 > c1 + R
    grid = TimeGrid.uniform(1.0, 4)
    path = StressPath.proportional(dev_to_sym(UNIT_DEV), [3.0, 3.0, 0.0],
                                   [0.0, 0.5, 1.0])
    with pytest.raises(UnstableInitialState) as err:
        run_constitutive(P0, path, grid)
    # the message names the start's stability residual and its bound
    # STABILITY_TOL (1 + |comp0|), comp0 the start's complementary energy
    number = r"(\d\.\d{2}e[+-]\d\d)"
    m = re.search(rf"stability residual {number}, bound {number}\)$",
                  str(err.value))
    sigma0, z0 = path.value(0.0), np.zeros(5)
    eps0 = P0.elastic.apply_inverse(sigma0)
    comp0 = stored_energy_density(P0, eps0, z0) - float(sigma0 @ eps0)
    res = stability_residual(P0, sigma0, PointState(eps0, z0))
    assert res > 1.0 and float(m[1]) == pytest.approx(res, rel=1e-2)
    assert float(m[2]) == pytest.approx(STABILITY_TOL * (1.0 + abs(comp0)),
                                        rel=1e-2)


@pytest.mark.parametrize("p", [P0, PS], ids=["sharp", "smooth"])
def test_a_zero_start_skips_its_residual_and_keeps_its_bits(monkeypatch, p):
    # at sigma0 = 0 every term of the step is >= 0 and vanishes at (0, 0):
    # the start is stable without a residual, and its strain is C^-1 sigma0
    # + 0 as before (a -0 stress component gives a +0 strain)
    def unreachable(*args):
        raise AssertionError("stability_residual called at a zero start")

    monkeypatch.setattr(constitutive, "stability_residual", unreachable)
    for sigma0 in (np.zeros(6), -np.zeros(6),
                   np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])):
        init = constitutive.checked_initial_state(p, sigma0)
        eps0 = p.elastic.apply_inverse(sigma0) + dev_to_sym(np.zeros(5))
        assert repr(init.eps.tolist()) == repr(eps0.tolist())
        assert repr(init.z.tolist()) == repr([0.0] * 5)
    # any nonzero start runs the check: a stable one passes, an unstable
    # one still raises
    calls, residual = [], stability_residual
    monkeypatch.setattr(constitutive, "stability_residual",
                        lambda *a: calls.append(a) or residual(*a))
    constitutive.checked_initial_state(p, dev_to_sym(1e-300 * UNIT_DEV))
    assert len(calls) == 1
    with pytest.raises(UnstableInitialState):
        constitutive.checked_initial_state(p, dev_to_sym(3.0 * UNIT_DEV))
    assert len(calls) == 2


def test_stability_of_incremental_states():
    grid = TimeGrid.uniform(1.0, 16)
    path = ramp_unload_path()
    traj = run_constitutive(PS, path, grid)
    for i in (4, 8, 12, 16):
        rep = verify_stability(PS, path.value(grid.nodes[i]), traj.state(i),
                               n_probes=200, seed=5)
        assert rep.passed, (i, rep.worst_violation, rep.analytic_residual)


def test_stability_flags_perturbed_state():
    sigma = dev_to_sym(2.5 * UNIT_DEV)
    st = incremental_step(PS, sigma, np.zeros(5))
    bad = PointState(st.eps, st.z + 0.1 * UNIT_DEV)
    rep = verify_stability(PS, sigma, bad, n_probes=200, seed=5)
    assert not rep.passed
    assert max(rep.worst_violation, rep.analytic_residual) > 0


def test_stability_at_global_minimum():
    rep = verify_stability(P0, np.zeros(6), PointState(np.zeros(6), np.zeros(5)),
                           n_probes=100, seed=1)
    assert rep.worst_violation <= 0.0
    assert rep.analytic_residual == 0.0


VECTOR5 = st.lists(st.floats(-1, 1), min_size=5, max_size=5)
STRESS = st.lists(st.floats(-4, 4), min_size=6, max_size=6)
RHOS = st.sampled_from((1e-4, 1e-3, 1e-2, 1e-1, 1.0))
# at c2 = 1/2 the step's modulus 2 c2 is 1, and gradient and prox units agree
C2S = st.sampled_from((0.5, 2.0))


def _unit(v):
    v = np.array(v)
    return v / norm(v) if norm(v) > 1e-3 else UNIT_DEV


def _state(p, sigma, z, strain_offset):
    """The state (C^-1 sigma + z + strain_offset, z)."""
    return PointState(p.elastic.apply_inverse(sigma) + dev_to_sym(z)
                      + strain_offset * np.ones(6), z)


def _assert_matches_closed_form(p, sigma, state):
    new = stability_residual(p, sigma, state)
    old = closed_form_stability_residual(p, sigma, state)
    assert abs(new - old) <= 1e-12 * (1.0 + norm(sigma) + old), (new, old)


@settings(max_examples=200, deadline=None)
@given(sigma=STRESS, z=st.lists(st.floats(-2, 2), min_size=5, max_size=5),
       rho=RHOS, offset=st.sampled_from((0.0, 1e-3, -0.2)), c2=C2S)
def test_stability_residual_matches_closed_form_smooth(sigma, z, rho, offset,
                                                       c2):
    # any z is feasible in the smooth model, inside the ball or beyond it
    p, sigma = MaterialParams(rho=rho, c2=c2), np.array(sigma)
    _assert_matches_closed_form(p, sigma, _state(p, sigma, np.array(z), offset))


@settings(max_examples=200, deadline=None)
@given(sigma=STRESS, direction=VECTOR5,
       where=st.sampled_from(("origin", "inside", "sphere")),
       length=st.floats(1e-3, 1.0 - 1e-9), offset=st.sampled_from((0.0, -0.2)),
       c2=C2S)
def test_stability_residual_matches_closed_form_sharp(sigma, direction, where,
                                                      length, offset, c2):
    # the inside states keep |z| >= 1e-3 c3: within roundoff of the origin
    # the new residual, like the point kernel, counts z as the origin
    p, sigma = MaterialParams(c2=c2), np.array(sigma)
    z = {"origin": 0.0, "inside": length, "sphere": p.c3}[where] \
        * _unit(direction)
    _assert_matches_closed_form(p, sigma, _state(p, sigma, z, offset))


@settings(max_examples=100, deadline=None)
@given(sigma=STRESS, direction=VECTOR5, excess=st.floats(1e-9, 2.0))
def test_sharp_state_outside_the_ball_is_infinitely_unstable(sigma, direction,
                                                              excess):
    sigma = np.array(sigma)
    z = P0.c3 * (1.0 + excess) * _unit(direction)
    assert stability_residual(P0, sigma, _state(P0, sigma, z, 0.0)) == math.inf


@settings(max_examples=200, deadline=None)
@given(sigma=STRESS, direction=VECTOR5, length=st.floats(0.0, 1.0),
       rho=st.sampled_from((0.0, 1e-4, 1e-2, 1.0)))
def test_every_incremental_step_is_stable(sigma, direction, length, rho):
    # a step's minimizer solves its own step (triangle inequality), so its
    # residual is at the point kernel's roundoff floor: RESIDUAL_RTOL of
    # 1 + |sigma| or 64 eps times the profile's curvature bound
    p, sigma = MaterialParams(rho=rho), np.array(sigma)
    state = incremental_step(p, sigma, length * _unit(direction))
    curvature = 2.0 * p.c2 + (p.core_curvature if rho > 0 else 0.0)
    tol = (RESIDUAL_RTOL * (1.0 + norm(sigma))
           + 64.0 * EPS * curvature * (1.0 + norm(state.z)))
    assert stability_residual(p, sigma, state) <= tol


def test_node_index_finds_nodes_and_rejects_other_times():
    grid = TimeGrid.with_step(1.0, 0.1)
    assert grid.node_indices([0.7])[0] == 7
    assert grid.node_indices([1.0])[0] == 10
    with pytest.raises(ValueError, match="not a node"):
        grid.node_indices([0.75])[0]


@pytest.mark.parametrize("nodes", [
    TimeGrid.with_step(1.0, 0.1).nodes, TimeGrid.uniform(3.0, 2048).nodes,
    np.array([0.0, 0.1, 0.35, 0.4, 1.0, 2.5]), np.array([-2.0, -1.0])])
def test_node_indices_match_the_argmin_per_time(nodes):
    # nodes, times within the tolerance of a node, times beyond either end
    # and midpoints (two nodes as near: the first) map as the argmin did,
    # and the first time off the grid raises its message
    grid = TimeGrid(nodes)
    tol = 1e-9 * max(1.0, nodes[-1])
    on = np.concatenate([nodes, nodes + 0.5 * tol, nodes - 0.5 * tol])
    assert grid.node_indices(on).tolist() == [
        oracles.node_index_argmin(nodes, t) for t in on.tolist()]
    off = [0.5 * (nodes[0] + nodes[1]), nodes[-1] + 2 * tol,
           nodes[0] - 1.0, math.nan]
    for t in off[:3]:
        with pytest.raises(ValueError) as want:
            oracles.node_index_argmin(nodes, t)
        with pytest.raises(ValueError, match=str(want.value)):
            grid.node_indices(np.r_[nodes[:2], t, off[0] + 1.0])
    with pytest.raises(ValueError, match="not a node"):
        grid.node_indices([math.nan])[0]
    assert grid.node_indices([]).tolist() == []


def test_stress_program_at_every_node_in_one_pass_matches_one_time_at_a_time():
    # clamped times before and after the program, the breakpoints and the
    # nodes of grids that do and do not share them, bit for bit
    path = StressPath(np.array([0.0, 0.3, 1.0 / 3.0, 1.0]),
                      RNG.standard_normal((4, 6)))
    ts = np.concatenate([[-1.0, 0.0, 0.3, 1.0 / 3.0, 1.0, 2.0],
                         TimeGrid.uniform(1.0, 64).nodes,
                         TimeGrid.uniform(1.1, 7).nodes])
    want = np.array([oracles.stress_value(path, t) for t in ts.tolist()])
    assert path.at(ts).tobytes() == want.tobytes()
    assert all(path.value(t).tobytes() == w.tobytes()
               for t, w in zip(ts.tolist(), want))


def _unit6(values):
    v = np.asarray(values, dtype=float)
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else np.eye(6)[0]


@st.composite
def _driver_case(draw):
    """A material of rho 0, 0.1 or 1e-3, c2 0.2, 0.5 or 2 and R in [0.1,
    1.5]; a proportional or non-proportional path of 2-4 breakpoints
    starting inside the elastic range (|b| <= 0.8 R), whose later
    amplitudes reach 4.5 (past the saturation of the ball at c2 <= 1/2);
    1-64 steps."""
    rho = draw(st.sampled_from([0.0, 0.1, 1e-3]))
    c2 = draw(st.sampled_from([0.2, 0.5, 2.0]))
    R = draw(st.floats(0.1, 1.5))
    m = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=m - 1,
                         max_size=m - 1))
    times = np.cumsum([0.0, *gaps])
    amps = [R * draw(st.floats(-0.8, 0.8))] + draw(st.lists(
        st.floats(-4.5, 4.5), min_size=m - 1, max_size=m - 1))
    direction = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)
    if draw(st.booleans()):
        path = StressPath.proportional(_unit6(draw(direction)), amps, times)
    else:
        path = StressPath(times, np.array([a * _unit6(draw(direction))
                                           for a in amps]))
    grid = TimeGrid.uniform(path.T, draw(st.integers(1, 64)))
    return MaterialParams(rho=rho, c2=c2, R=R), path, grid


@settings(max_examples=60, deadline=None)
@given(_driver_case())
# sharp runs onto the ball and back at c2 != 1/2, where the step's modulus
# 2 c2 is not 1 (saturation at |b| = 2 c2 c3 + c1 + R)
@example((MaterialParams(c2=0.2), ramp_unload_path(peak=4.0),
          TimeGrid.uniform(1.0, 16)))
@example((MaterialParams(c2=2.0), ramp_unload_path(peak=7.0),
          TimeGrid.uniform(1.0, 16)))
def test_driver_matches_the_per_step_loop(case):
    # the step sequence is the loop's, so z is the same bit for bit; the
    # strains and the ledger are formed for all nodes at once and agree to
    # 64 eps times (1 + the column's largest entry); the balance residual
    # is a difference of ledger terms, so it is held to the ledger's scale
    p, path, grid = case
    new = run_constitutive(p, path, grid)
    old = oracles.run_constitutive_loop(p, path, grid)
    assert new.z.tobytes() == old.z.tobytes()
    ledger = 1.0 + max(np.max(np.abs(getattr(old, c)))
                       for c in ("stored", "cum_diss", "work"))
    for col in ("eps", "stored", "cum_diss", "work", "residual"):
        a, b = getattr(new, col), getattr(old, col)
        scale = ledger if col == "residual" else 1.0 + np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 64.0 * EPS * scale, col
    # the trajectory check's residual of each step is the step's scalar
    # first_order_residual (of reduced_problem at z[i-1]) within the check's
    # roundoff floor; both are in gradient units
    sig, z = path.at(grid.nodes), new.z
    pb = constitutive.reduced_problem(p, sig[0], z[0])
    res = point_residuals(pb, dev_split(sig)[0][1:], z[1:], z[:-1])[1]
    curvature = 2.0 * p.c2 + (p.core_curvature if p.rho > 0 else 0.0)

    def scalar(i):
        q = constitutive.reduced_problem(p, sig[i], z[i - 1])
        return first_order_residual(z[i], q.grad(z[i]), (
            (np.zeros(5), q.w_zero), (z[i - 1], q.w_shift)), q.radius)

    assert all(abs(r - want) <= 64.0 * EPS * (curvature * (1.0 + nz) + share)
               for r, (want, nz, share) in zip(res, map(scalar,
                                                        range(1, len(z)))))


def _moved_kernel(monkeypatch, k, move):
    """Patch the driver's kernel so that its first call (the time loop)
    returns move(z) for step k and runs the later steps from it."""
    kernel, calls = constitutive.point_path, []

    def moved(pb, loads, anchor, trail):
        calls.append(None)
        if len(calls) > 1:
            return kernel(pb, loads, anchor, trail)
        head = kernel(pb, loads[:k], anchor, trail)
        head[-1] = move(head[-1])
        return np.vstack([head, kernel(pb, loads[k:], head[-1], trail)])

    monkeypatch.setattr(constitutive, "point_path", moved)


@pytest.mark.parametrize("rho, c2", [(0.1, 0.5), (0.0, 0.5), (0.1, 2.0),
                                     (0.0, 2.0)],
                         ids=["0.1", "0.0", "0.1-c2=2", "0.0-c2=2"])
def test_the_trajectory_check_names_a_step_moved_off_its_minimizer(
        monkeypatch, rho, c2):
    # the loop runs the kernel unchecked; the check after it must catch
    # one step moved by 1e-6 across the load, naming the step and its time
    k, grid = 7, TimeGrid.uniform(1.0, 16)
    _moved_kernel(monkeypatch, k, lambda z: z + 1e-6 * np.eye(5)[1])
    with pytest.raises(NonConvergence, match=rf"^step {k} at t = "
                       rf"{grid.nodes[k]:g}: point solve left first-order "
                       rf"residual .*; Newton trail"):
        run_constitutive(MaterialParams(rho=rho, c2=c2),
                         ramp_unload_path(peak=2.0), grid)


def test_the_trajectory_check_rejects_a_sharp_anchor_off_the_ball(
        monkeypatch):
    # on the saturated plateau a z pushed radially off the ball still meets
    # its first-order condition; the next step's anchor test must catch it
    k, grid = 7, TimeGrid.uniform(1.0, 16)
    traj = run_constitutive(P0, ramp_unload_path(peak=4.0), grid)
    assert np.allclose(np.linalg.norm(traj.z[k - 1:k + 1], axis=1), P0.c3,
                       rtol=1e-15, atol=0.0)
    _moved_kernel(monkeypatch, k, lambda z: (1.0 + 1e-6) * z)
    with pytest.raises(ValueError, match=rf"^step {k + 1} at t = "
                       rf"{grid.nodes[k + 1]:g}: anchor must satisfy"):
        run_constitutive(P0, ramp_unload_path(peak=4.0), grid)


@pytest.mark.parametrize("steps", [1, 64])
def test_a_run_evaluates_the_stored_energy_once_for_all_nodes(monkeypatch,
                                                              steps):
    # one call for the whole ledger (all steps + 1 nodes), however many
    # steps, beside the start check's call on the one initial state when
    # the path starts loaded (a zero start is stable without the check)
    rows = []

    def counted(p, eps, z):
        rows.append(np.shape(eps)[:-1])
        return stored_energy_density(p, eps, z)

    monkeypatch.setattr(constitutive, "stored_energy_density", counted)
    run_constitutive(PS, ramp_unload_path(), TimeGrid.uniform(1.0, steps))
    assert rows == [(steps + 1,)]
    rows.clear()
    loaded = StressPath.proportional(dev_to_sym(UNIT_DEV), [0.25, 3.0, 0.0],
                                     [0.0, 0.5, 1.0])
    run_constitutive(PS, loaded, TimeGrid.uniform(1.0, steps))
    assert rows == [(), (steps + 1,)]


def test_balance_residual_one_sided_and_shrinking():
    path = ramp_unload_path()
    prev_gap = None
    for n in (25, 50, 100, 200):
        traj = run_constitutive(PS, path, TimeGrid.uniform(1.0, n))
        res = traj.residual
        assert res.max() <= 1e-10
        gap = np.abs(res).max()
        if prev_gap is not None:
            assert gap <= 0.75 * prev_gap
        prev_gap = gap


def test_temporal_rate_at_least_half():
    study = temporal_error_study(PS, rate_path(),
                                 taus=[1 / 16, 1 / 32, 1 / 64],
                                 reference_tau=1 / 512)
    assert not study.degenerate
    assert study.order is not None and study.order >= 0.45


def test_temporal_study_degenerate_in_elastic_regime():
    path = StressPath.proportional(dev_to_sym(UNIT_DEV), [0.0, 0.3, 0.0],
                                   [0.0, 0.5, 1.0])
    study = temporal_error_study(PS, path, taus=[1 / 8, 1 / 16],
                                 reference_tau=1 / 128)
    assert study.degenerate
    assert study.order is None


def test_temporal_study_single_tau():
    study = temporal_error_study(PS, ramp_unload_path(), taus=[1 / 16],
                                 reference_tau=1 / 128)
    assert study.order is None
    assert len(study.errors) == 1


def test_temporal_study_preconditions():
    with pytest.raises(ValueError):
        temporal_error_study(P0, ramp_unload_path(), taus=[1 / 8])
    with pytest.raises(ValueError):
        temporal_error_study(PS, ramp_unload_path(), taus=[1 / 8],
                             reference_tau=1 / 16)


def test_continuous_dependence_identical_inputs():
    sigma = dev_to_sym(1.0 * UNIT_DEV)
    rep = continuous_dependence_check(P0, [(((sigma), np.zeros(5)),
                                              ((sigma), np.zeros(5)))], slack=0.0)
    assert rep.rows[0]["lhs"] <= 1e-18


def test_continuous_dependence_random_pairs():
    for p in (P0, PS):
        pairs = []
        for trial in range(100):
            rng = np.random.default_rng(2000 + trial)
            s1 = rng.standard_normal(6) * 1.5
            zb1 = rng.standard_normal(5) * 0.3
            if rng.uniform() < 0.5:
                s2, zb2 = s1, rng.standard_normal(5) * 0.3
            else:
                s2, zb2 = s1 + rng.standard_normal(6) * 1e-3, zb1
            if p.rho == 0:
                for zb in (zb1, zb2):
                    n = np.linalg.norm(zb)
                    if n > p.c3:
                        zb *= p.c3 / n
            pairs.append(((s1, zb1), (s2, zb2)))
        rep = continuous_dependence_check(p, pairs)
        assert rep.all_ok


@pytest.mark.parametrize("c2", [0.5, 2.0])
def test_regularized_step_is_within_its_rate_of_the_sharp_step(c2):
    # one step from the same anchor: F_0 - F_rho lies in [0, c1 rho] inside
    # the ball and both steps are 2 c2-strongly convex in z, so the two
    # minimality gaps give |z_rho - z_0| <= sqrt(c1 rho / (2 c2)) whenever
    # |z_rho| <= c3; the strain moves by the same amount (eps = C^-1 sigma + z)
    p0 = MaterialParams(c2=c2)
    rng = np.random.default_rng(18)
    peak = 2.0 * (2.0 * c2 * p0.c3 + p0.c1 + p0.R)   # twice the ball's load
    for rho in (0.1, 1e-2, 1e-3, 1e-4):
        p_rho, inside = replace(p0, rho=rho), 0
        bound = math.sqrt(p0.c1 * rho / (2.0 * c2))
        for _ in range(300):
            d, a = rng.standard_normal(6), rng.standard_normal(5)
            sigma = d * (rng.uniform(0.0, peak) / np.linalg.norm(d))
            a *= p0.c3 * min(1.0, rng.uniform(0.0, 1.2)) / np.linalg.norm(a)
            s0 = incremental_step(p0, sigma, a)
            s_rho = incremental_step(p_rho, sigma, a)
            gap = np.linalg.norm(s_rho.z - s0.z)
            assert norm(s_rho.eps - s0.eps) == pytest.approx(gap, rel=1e-12,
                                                             abs=1e-15)
            if np.linalg.norm(s_rho.z) <= p0.c3:
                inside += 1
                assert gap <= bound, (rho, gap / bound)
        assert inside >= 100


def test_rate_independence_under_reparametrization():
    # run the same stress trace through a nonlinear increasing clock
    path = ramp_unload_path()
    grid = TimeGrid.uniform(1.0, 16)
    traj = run_constitutive(P0, path, grid)
    phi = lambda s: s ** 2  # increasing bijection of [0, 1]
    new_nodes = np.sqrt(grid.nodes)
    slow_path = reparametrized(path, phi, np.sort(np.unique(np.concatenate(
        [new_nodes, np.sqrt(path.times)]))))
    traj2 = run_constitutive(P0, slow_path, TimeGrid(new_nodes))
    assert np.allclose(traj.z, traj2.z, atol=1e-9)
    assert np.allclose(traj.eps, traj2.eps, atol=1e-9)


def test_proportional_load_stays_on_ray():
    grid = TimeGrid.uniform(1.0, 24)
    traj = run_constitutive(PS, ramp_unload_path(), grid)
    for zi in traj.z:
        r = np.linalg.norm(zi)
        assert abs(r - float(zi @ UNIT_DEV)) <= 1e-9


def test_ledger_matches_path_total():
    grid = TimeGrid.uniform(1.0, 24)
    traj = run_constitutive(P0, ramp_unload_path(), grid)
    assert traj.cum_diss[-1] == pytest.approx(path_dissipation(P0.R, traj.z),
                                              rel=1e-12)
