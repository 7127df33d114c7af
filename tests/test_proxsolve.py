import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import planar_step_oracle
from smaevol.material import MaterialParams
from smaevol.constitutive import reduced_problem
from smaevol.proxsolve import (NonConvergence, SolveInfo, StepProblem,
                               prox_nodal, prox_nonsmooth, solve_field,
                               solve_point)

RNG = np.random.default_rng(23)
TOL = 1e-10


def quad_problem(b, w_shift, anchor, **kw):
    b = np.asarray(b, float)
    return StepProblem(smooth=lambda z: 0.5 * float(z @ z) - float(b @ z),
                       grad=lambda z: z - b,
                       lipschitz=1.0, w_shift=w_shift,
                       anchor=np.asarray(anchor, float), **kw)


def coupled_field_problem(m, rng):
    """Sharp-type field problem: nodes coupled through an SPD quadratic
    with condition number 100 (so unchecked BB steps overshoot), per-node
    kinks at random anchors inside the unit ball."""
    Q = np.linalg.qr(rng.standard_normal((5 * m, 5 * m)))[0]
    A = Q @ np.diag(np.logspace(0, 2, 5 * m)) @ Q.T
    b = rng.standard_normal(5 * m) * 3

    def smooth(Z):
        zf = Z.ravel()
        return 0.5 * float(zf @ (A @ zf)) - float(b @ zf)

    def grad(Z):
        return (A @ Z.ravel() - b).reshape(-1, 5)

    anchors = rng.standard_normal((m, 5))
    anchors *= rng.uniform(0.2, 0.9, (m, 1)) / np.linalg.norm(anchors, axis=1,
                                                             keepdims=True)
    return StepProblem(smooth, grad, 101.0,  # > the top eigenvalue 100
                       rng.uniform(0.1, 0.5, m), anchors,
                       w_zero=rng.uniform(0.1, 0.5, m), radius=1.0)


def test_trivial_unconstrained_minimum():
    pb = quad_problem(np.zeros(5), 0.0, np.zeros(5))
    assert np.allclose(solve_point(pb, TOL), 0.0, atol=1e-9)


def test_shrinkage_dead_zone():
    b = np.zeros(5)
    b[0] = 0.8
    pb = quad_problem(b, 1.0, np.zeros(5))  # |b| <= w_shift -> 0
    assert np.allclose(solve_point(pb, TOL), 0.0, atol=1e-9)


def test_quadratic_plus_shift_matches_closed_form():
    # min 0.5|z-b|^2 + w |z - anchor| has the shrinkage solution about anchor
    for _ in range(20):
        b = RNG.standard_normal(5)
        anchor = RNG.standard_normal(5) * 0.5
        w = RNG.uniform(0.05, 1.0)
        pb = quad_problem(b, w, anchor)
        z = solve_point(pb, TOL)
        u = b - anchor
        nu = np.linalg.norm(u)
        expect = anchor + (u * max(0.0, 1 - w / nu) if nu > 0 else 0.0)
        assert np.linalg.norm(z - expect) < 1e-8


def test_generic_smooth_instance_matches_planar_oracle():
    p = MaterialParams(rho=0.1)
    sigma = RNG.standard_normal(6) * 1.5
    z_prev = RNG.standard_normal(5) * 0.3
    from smaevol.constitutive import incremental_step
    st = incremental_step(p, sigma, z_prev)
    z_oracle, step = planar_step_oracle(p, sigma, z_prev)
    assert np.linalg.norm(st.z - z_oracle) <= 2 * step


def test_monotone_descent_and_info():
    p = MaterialParams(rho=0.05)
    pb = reduced_problem(p, RNG.standard_normal(6) * 2, RNG.standard_normal(5) * 0.2)
    info = SolveInfo()
    solve_point(pb, TOL, info=info)
    hist = np.array(info.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert info.residual <= TOL
    # field-shaped: three coupled nodes with the ball and the zero kink
    fp = coupled_field_problem(3, np.random.default_rng(31))
    info = SolveInfo()
    X = solve_field(fp, fp.anchor, TOL, info=info)
    hist = np.array(info.objective_history)
    assert len(hist) > 2 and np.all(np.diff(hist) <= 1e-12)
    assert info.residual <= TOL
    assert hist[-1] == pytest.approx(fp.smooth(X) + fp.nonsmooth(X), abs=1e-12)
    assert np.all(np.linalg.norm(X, axis=1) <= fp.radius + 1e-12)


def test_fixed_point_property():
    # if the anchor already satisfies stationarity the solver stays there
    b = np.zeros(5)
    b[0] = 0.3
    anchor = np.zeros(5)
    pb = quad_problem(b, 0.5, anchor)  # 0 is optimal since |b| <= 0.5
    z = solve_point(pb, TOL)
    assert np.linalg.norm(z - anchor) <= 10 * TOL


def test_solver_level_continuous_dependence():
    anchor = RNG.standard_normal(5) * 0.2
    b1 = RNG.standard_normal(5)
    b2 = b1 + RNG.standard_normal(5) * 0.01
    z1 = solve_point(quad_problem(b1, 0.4, anchor), TOL)
    z2 = solve_point(quad_problem(b2, 0.4, anchor), TOL)
    # strong convexity modulus of the smooth part is 1 here
    assert np.linalg.norm(z1 - z2) <= np.linalg.norm(b1 - b2) + 2e-10


def test_prox_sum_against_planar_brute_force():
    # prox of w0|z| + w1|z - anchor| + ball indicator via Dykstra, checked
    # against exhaustive search in the plane of x and anchor
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        x = rng.standard_normal(5)
        anchor = rng.standard_normal(5) * 0.6
        w0, w1, radius, t = 0.3, 0.4, 0.8, 1.0
        y = prox_nonsmooth(x, t, w1, anchor, w_zero=w0, radius=radius)
        # brute force on the plane span{x, anchor}
        from oracles import plane_basis
        u1, u2 = plane_basis(x, anchor)
        xs = np.linspace(-1.0, 1.0, 1201)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts_r = np.sqrt(X * X + Y * Y)
        obj = (0.5 * ((X - x @ u1) ** 2 + (Y - x @ u2) ** 2
                      + (float(x @ x) - (x @ u1) ** 2 - (x @ u2) ** 2))
               + t * w0 * pts_r
               + t * w1 * np.sqrt((X - anchor @ u1) ** 2 + (Y - anchor @ u2) ** 2))
        obj = np.where(pts_r <= radius, obj, np.inf)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        y_bf = xs[i] * u1 + xs[j] * u2
        assert np.linalg.norm(y - y_bf) <= 2 * (xs[1] - xs[0])
        assert np.linalg.norm(y) <= radius + 1e-12


def test_ball_projection_composition_when_anchor_zero():
    x = RNG.standard_normal(5) * 3
    y = prox_nonsmooth(x, 1.0, 0.5, np.zeros(5), w_zero=1.0, radius=1.0)
    n = np.linalg.norm(x)
    expect = x / n * min(max(n - 1.5, 0.0), 1.0)
    assert np.allclose(y, expect, atol=1e-14)


def test_nonconvergence_raises():
    b = np.ones(5) * 10
    pb = quad_problem(b, 0.1, np.zeros(5))
    pb.lipschitz = 1e4  # overstated bound forces tiny steps
    with pytest.raises(NonConvergence):
        solve_point(pb, 1e-14, max_iter=2)
    fp = coupled_field_problem(3, np.random.default_rng(37))
    fp.lipschitz *= 1e4
    with pytest.raises(NonConvergence):
        solve_field(fp, fp.anchor, 1e-14, max_iter=2)


def test_deterministic_repeat():
    p = MaterialParams(rho=0.1)
    sigma = RNG.standard_normal(6)
    anchor = RNG.standard_normal(5) * 0.1
    z1 = solve_point(reduced_problem(p, sigma, anchor), TOL)
    z2 = solve_point(reduced_problem(p, sigma, anchor), TOL)
    assert np.all(z1 == z2)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
       anchor=st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5),
       zero_anchor=st.booleans(),
       t=st.floats(0.01, 3.0), w1=st.floats(0.0, 2.0),
       w0=st.none() | st.floats(0.0, 2.0),
       radius=st.none() | st.floats(0.1, 2.0))
def test_point_and_nodal_prox_agree_on_one_row(x, anchor, zero_anchor, t, w1,
                                               w0, radius):
    # the step problem picks prox_nonsmooth for a point and prox_nodal for a
    # field; on one row the two evaluators must give the same prox
    x = np.array(x)
    a = np.zeros(5) if zero_anchor else np.array(anchor)
    y = prox_nonsmooth(x, t, w1, a, 0.0 if w0 is None else w0, radius)
    y_nodal = prox_nodal(x[None], t, [w1], a[None],
                         None if w0 is None else [w0], radius)[0]
    assert np.linalg.norm(y - y_nodal) <= 1e-10
