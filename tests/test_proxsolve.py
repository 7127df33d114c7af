import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import smaevol.proxsolve as proxsolve
from oracles import (BBInfo, BBPointProblem, bb_solve_point, dykstra_prox,
                     first_order_residual, planar_step_oracle)
from smaevol.material import MaterialParams, radial_core_at
from smaevol.constitutive import incremental_step, reduced_problem
from smaevol.proxsolve import (NonConvergence, PointProblem, StepProblem,
                               first_order_rows, prox_nodal, prox_nonsmooth,
                               solve_field, solve_point)
from smaevol.tensors import dev_to_sym

RNG = np.random.default_rng(23)
TOL = 1e-10


def quad_problem(b, w_shift, anchor, **kw):
    # 0.5 |z|^2 - b.z + w_shift |z - anchor|
    return PointProblem(b, 0.5, w_shift, anchor, **kw)


def coupled_field_problem(m, rng):
    """Sharp-type field problem: nodes coupled through an SPD quadratic
    with condition number 100 (so unchecked BB steps overshoot), per-node
    kinks at random anchors inside the unit ball."""
    Q = np.linalg.qr(rng.standard_normal((5 * m, 5 * m)))[0]
    A = Q @ np.diag(np.logspace(0, 2, 5 * m)) @ Q.T
    b = rng.standard_normal(5 * m) * 3

    def smooth_grad(Z):
        zf = Z.ravel()
        az = A @ zf
        return 0.5 * float(zf @ az) - float(b @ zf), (az - b).reshape(-1, 5)

    anchors = rng.standard_normal((m, 5))
    anchors *= rng.uniform(0.2, 0.9, (m, 1)) / np.linalg.norm(anchors, axis=1,
                                                             keepdims=True)
    return StepProblem(smooth_grad, 101.0,  # > the top eigenvalue 100
                       rng.uniform(0.1, 0.5, m), anchors,
                       w_zero=rng.uniform(0.1, 0.5, m), radius=1.0)


def test_trivial_unconstrained_minimum():
    pb = quad_problem(np.zeros(5), 0.0, np.zeros(5))
    assert np.allclose(solve_point(pb), 0.0, atol=1e-9)


def test_shrinkage_dead_zone():
    b = np.zeros(5)
    b[0] = 0.8
    pb = quad_problem(b, 1.0, np.zeros(5))  # |b| <= w_shift -> 0
    assert np.allclose(solve_point(pb), 0.0, atol=1e-9)


def test_quadratic_plus_shift_matches_closed_form():
    # min 0.5|z-b|^2 + w |z - anchor| has the shrinkage solution about anchor
    for _ in range(20):
        b = RNG.standard_normal(5)
        anchor = RNG.standard_normal(5) * 0.5
        w = RNG.uniform(0.05, 1.0)
        pb = quad_problem(b, w, anchor)
        z = solve_point(pb)
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
    # point-shaped: the prox-gradient loop the exact point kernel replaced
    p = MaterialParams(rho=0.05)
    pb = reduced_problem(p, RNG.standard_normal(6) * 2, RNG.standard_normal(5) * 0.2)
    info = BBInfo()
    bb_solve_point(BBPointProblem.of(pb), TOL, info=info)
    hist = np.array(info.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert info.residual <= TOL
    # field-shaped: three coupled nodes with the ball and the zero kink; every
    # prox call of the solve starts at the iterate it has accepted last
    fp = coupled_field_problem(3, np.random.default_rng(31))
    iterates = []

    class RecordingProblem(StepProblem):
        def prox(self, x, t, start):
            if not iterates or iterates[-1] is not start:
                iterates.append(start)
            return super().prox(x, t, start)

    X, res0 = solve_field(RecordingProblem(**vars(fp)), fp.anchor, TOL)
    assert iterates[-1] is X and res0 > TOL
    hist = np.array([fp.smooth_grad(Z)[0] + BBPointProblem.nonsmooth(fp, Z)
                     for Z in iterates])
    assert len(hist) > 2 and np.all(np.diff(hist) <= 1e-12)
    t0 = 1.0 / fp.lipschitz
    g = fp.smooth_grad(X)[1]
    assert np.linalg.norm(X - fp.prox(X - t0 * g, t0, fp.anchor)) / t0 <= TOL
    assert np.all(np.linalg.norm(X, axis=1) <= fp.radius + 1e-12)


def test_fixed_point_property():
    # if the anchor already satisfies stationarity the solver stays there
    b = np.zeros(5)
    b[0] = 0.3
    anchor = np.zeros(5)
    pb = quad_problem(b, 0.5, anchor)  # 0 is optimal since |b| <= 0.5
    z = solve_point(pb)
    assert np.linalg.norm(z - anchor) <= 10 * TOL


def test_solver_level_continuous_dependence():
    anchor = RNG.standard_normal(5) * 0.2
    b1 = RNG.standard_normal(5)
    b2 = b1 + RNG.standard_normal(5) * 0.01
    z1 = solve_point(quad_problem(b1, 0.4, anchor))
    z2 = solve_point(quad_problem(b2, 0.4, anchor))
    # strong convexity modulus of the smooth part is 1 here
    assert np.linalg.norm(z1 - z2) <= np.linalg.norm(b1 - b2) + 2e-10


def test_prox_sum_against_planar_brute_force():
    # exact prox of w0|z| + w1|z - anchor| + ball indicator, checked
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


def test_nonconvergence_raises(monkeypatch):
    fp = coupled_field_problem(3, np.random.default_rng(37))
    fp.lipschitz *= 1e4
    monkeypatch.setattr(proxsolve, "FIELD_MAX_ITER", 2)
    with pytest.raises(NonConvergence, match="after 2 iterations"):
        solve_field(fp, fp.anchor, 1e-14)


def test_deterministic_repeat():
    p = MaterialParams(rho=0.1)
    sigma = RNG.standard_normal(6)
    anchor = RNG.standard_normal(5) * 0.1
    z1 = solve_point(reduced_problem(p, sigma, anchor))
    z2 = solve_point(reduced_problem(p, sigma, anchor))
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
                         None if w0 is None else [w0], radius, a[None])[0]
    assert np.linalg.norm(y - y_nodal) <= 1e-10


def _anchor(b, direction, length, kind, p):
    """Anchor of the given kind: off b's line, on it, on the sphere |z| = c3
    (the saturated sharp state), or zero."""
    if kind == "zero":
        return np.zeros(5)
    if kind == "collinear" or np.linalg.norm(direction) < 1e-3:
        direction = b if np.linalg.norm(b) >= 1e-3 else np.eye(5)[0]
    a = direction / np.linalg.norm(direction)
    if kind == "saturated":
        return p.c3 * a
    if p.rho == 0 and abs(length) > p.c3:
        length = np.sign(length) * p.c3
    return length * a


# a saturated sharp anchor nearly on b's line (see the test below)
NEARLY_COLLINEAR = [0.0, 0.0, 0.0, 0.5, 0.001953125]


@settings(max_examples=200, deadline=None)
@given(b=st.lists(st.floats(-4, 4), min_size=5, max_size=5),
       direction=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       length=st.floats(-1.3, 1.3),
       kind=st.sampled_from(("general", "collinear", "saturated", "zero")),
       rho=st.sampled_from((0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)))
@example(b=NEARLY_COLLINEAR, direction=[0.0] * 5, length=1.0, kind="general",
         rho=0.0)
def test_point_kernel_matches_the_prox_gradient_oracle(b, direction, length,
                                                       kind, rho):
    p = MaterialParams(rho=rho)
    b = np.array(b)
    anchor = _anchor(b, np.array(direction), length, kind, p)
    pb = reduced_problem(p, dev_to_sym(b), anchor)
    z = solve_point(pb)
    oracle = BBPointProblem.of(pb)
    J = lambda y: pb.smooth(y) + oracle.nonsmooth(y)
    info = BBInfo()
    try:
        z_bb = bb_solve_point(oracle, 1e-13, info=info)
    except NonConvergence:
        # the loop stalls on some stiff inputs (rho = 1e-4 with the penalty
        # active); the exact step still has to beat every iterate it reached
        best = min(info.objective_history)
        assert J(z) <= best + 1e-12 * (1.0 + abs(best))
        return
    gap = J(z_bb) - J(z)
    assert gap >= -1e-12 * (1.0 + abs(J(z_bb)))
    # the oracle's own error: the loop stops at a roundoff floor that grows
    # with the curvature bound L, and its residual bounds its distance to
    # the minimizer by residual (1/L + 2/m), m = 2 c2 the strong-convexity
    # modulus, as long as its Dykstra prox is exact; sqrt(2 gap / m)
    # bounds it in any case
    m = 2.0 * p.c2
    radius = max(info.residual * (1.0 / oracle.lipschitz + 2.0 / m),
                 np.sqrt(2.0 * max(gap, 0.0) / m))
    assert np.linalg.norm(z - z_bb) <= 1e-9 * (1.0 + np.linalg.norm(b)) + radius
    if p.rho == 0:
        assert np.linalg.norm(z) <= p.c3 * (1.0 + 1e-15)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
       anchor=st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5),
       anchor_kind=st.sampled_from(("general", "collinear", "zero")),
       t=st.floats(0.01, 3.0), w1=st.floats(0.0, 2.0), w0=st.floats(0.0, 2.0),
       radius=st.none() | st.floats(0.1, 2.0))
def test_exact_prox_matches_the_dykstra_oracle(x, anchor, anchor_kind, t, w1,
                                               w0, radius):
    x = np.array(x)
    a = np.array(anchor)
    if anchor_kind == "zero":
        a = np.zeros(5)
    elif anchor_kind == "collinear":
        a = 0.7 * x
    y = prox_nonsmooth(x, t, w1, a, w0, radius)
    # run to convergence: at its former cap of 500 iterations the splitting
    # stops early on about 1 in 1000 random inputs, up to 6e-3 off
    y_dyk = dykstra_prox(x, t, w1, a, w0, radius, dyk_max=100000)

    def objective(z):
        return (0.5 * float((z - x) @ (z - x))
                + t * (w0 * np.linalg.norm(z) + w1 * np.linalg.norm(z - a)))

    # the exact prox is never worse; the splitting's absolute stopping test
    # can still leave it short at small scales or with kinks close
    # together, and by strong convexity (modulus 1) it then lies within
    # sqrt(2 gap) of the minimizer
    gap = objective(y_dyk) - objective(y)
    assert gap >= -1e-12 * (1.0 + objective(y_dyk))
    assert np.linalg.norm(y - y_dyk) <= (1e-9 * (1.0 + np.linalg.norm(x))
                                         + np.sqrt(2.0 * max(gap, 0.0)))
    if radius is not None:
        assert np.linalg.norm(y) <= radius * (1.0 + 1e-15)


def test_newton_cap_raises_with_the_residual_trail(monkeypatch):
    p = MaterialParams(rho=0.1)
    b = np.array([2.5, 1.0, 0.0, 0.0, 0.0])
    anchor = np.array([0.2, 0.3, 0.0, 0.0, 0.0])  # off b's line, not stuck
    pb = PointProblem(b, p.c2, p.R, anchor, core=p)
    solve_point(pb)
    monkeypatch.setattr(proxsolve, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergence,
                       match=r"stalled after 1 steps; \|g\| trail "
                             r"\d\.\d\de[+-]\d\d$"):
        solve_point(pb)


def test_a_stall_in_a_path_names_only_its_own_trail(monkeypatch):
    # a path's trail runs on across its steps, but a root that stalls names
    # only its own |g| values, as the same step solved alone does
    p = MaterialParams(rho=0.1)
    loads = np.array([[2.5, 1.0, 0.0, 0.0, 0.0], [0.5, 3.0, 0.0, 0.0, 0.0]])
    anchor = np.array([0.2, 0.3, 0.0, 0.0, 0.0])
    pb = PointProblem(loads[0], p.c2, p.R, anchor, core=p)
    step, calls = proxsolve._plane_step, []

    def capped(*args):
        if calls:  # the second step's root may take one Newton step
            monkeypatch.setattr(proxsolve, "NEWTON_MAX_ITER", 1)
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(proxsolve, "_plane_step", capped)
    trail = []
    with pytest.raises(NonConvergence,
                       match=r"stalled after 1 steps; \|g\| trail "
                             r"\d\.\d\de[+-]\d\d$"):
        proxsolve.point_path(pb, loads, anchor, trail)
    assert len(calls) == 2 and len(trail) > 1


def test_point_path_runs_no_iterative_loop(monkeypatch):
    # the point step is exact: neither the prox-gradient loop of the field
    # step nor the field's rowwise prox runs for it
    def forbidden(*args, **kwargs):
        raise AssertionError("iterative field solver on the point path")

    monkeypatch.setattr(proxsolve, "solve_field", forbidden)
    monkeypatch.setattr(proxsolve, "prox_nodal", forbidden)
    rng = np.random.default_rng(41)
    for p in (MaterialParams(), MaterialParams(rho=0.1)):
        z = np.zeros(5)
        for _ in range(30):
            st_ = incremental_step(p, rng.standard_normal(6) * 2.5, z)
            z = st_.z


def test_nodal_prox_is_exact_on_rows_the_splitting_leaves_short():
    # rows on which the Dykstra splitting of the oracle stops early (small
    # scale, two kinks 6e-8 apart, slow progress along the sphere): the
    # nodal prox returns the exact prox on each, alone and stacked with a
    # benign row
    rows = [  # x, anchor, t, w_shift, w_zero, radius
        ([0.0, 0.0, 1e-08, 1e-4, 0.0], [0.0, 0.0, 1e-08, 1e-4, 0.0],
         1.0214037588166038, 1.2963609533099623, 1.2963609533099623, 0.1),
        ([-1.9041956661481285, -2.8007314629166506, 0.0, 2.0,
          -5.960464477539063e-08], [0.0, 0.0, 0.0, 0.0, -5.960464477539063e-08],
         2.0, 1.5904181444302652, 0.5930206221637216, 0.5),
        ([0.0, 2.220446049250313e-16, 0.0706694012, -0.284114945, 1e-10],
         [0.0, 2.220446049250313e-16, 0.0706694012, 0.325508214, 1e-10],
         2.5441289105134923, 1.656006452514164, 0.32550821431609706,
         0.32550821431609706),
    ]
    benign = (np.array([0.3, -0.2, 0.1, 0.0, 0.5]), np.array([0.1, 0.0, 0.0, 0.2, 0.0]))
    for x, a, t, w1, w0, r in rows:
        x, a = np.array(x), np.array(a)
        exact = prox_nonsmooth(x, t, w1, a, w0, r)
        assert np.linalg.norm(dykstra_prox(x, t, w1, a, w0, r) - exact) > 1e-10
        X = np.stack([x, benign[0]])
        A = np.stack([a, benign[1]])
        out = prox_nodal(X, t, [w1, w1], A, [w0, w0], r, A)
        assert np.linalg.norm(out[0] - exact) <= 1e-10
        assert np.linalg.norm(out[1] - prox_nonsmooth(benign[0], t, w1, benign[1],
                                                      w0, r)) <= 1e-10


@pytest.mark.parametrize("w_zero,radius", [(None, None), (0.3, None),
                                           (None, 1.0), (0.3, 1.0)])
def test_field_solve_takes_one_weight_for_all_nodes(w_zero, radius):
    # StepProblem declares float weights: a float weighs every node alike,
    # bit for bit as the per-node array of the same value
    fp = coupled_field_problem(4, np.random.default_rng(43))
    m = len(fp.anchor)
    one = replace(fp, w_shift=0.2, w_zero=w_zero, radius=radius)
    per_node = replace(fp, w_shift=np.full(m, 0.2), radius=radius,
                       w_zero=None if w_zero is None else np.full(m, w_zero))
    z_one, _ = solve_field(one, fp.anchor, TOL)
    z_per_node, _ = solve_field(per_node, fp.anchor, TOL)
    assert np.array_equal(z_one, z_per_node)


_row = st.tuples(
    st.sampled_from(("zero", "collinear", "general", "subnormal",
                     "saturated")),
    st.lists(st.floats(-3, 3), min_size=5, max_size=5),
    st.lists(st.floats(-1, 1), min_size=5, max_size=5),
    st.floats(-1.5, 1.5),           # anchor length (collinear: x's multiple)
    st.floats(-8.0, 0.0),           # log10 of the row's scale
    st.floats(-323.0, -308.0),      # log10 of a subnormal anchor's length
    st.floats(0.0, 2.0),            # w_shift
    st.just(0.0) | st.floats(0.0, 2.0))  # w_zero


def _nodal_rows(rows, radius):
    """(X, anchors, w_shift, w_zero) of drawn _row tuples."""
    X, A, W1, W0 = [], [], [], []
    for kind, x, direction, length, log_scale, log_tiny, w1, w0 in rows:
        scale = 10.0 ** log_scale
        x, d = np.array(x) * scale, np.array(direction)
        d = d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.eye(5)[0]
        a = {"zero": np.zeros(5), "collinear": length * x,
             "general": length * scale * d, "subnormal": 10.0 ** log_tiny * d,
             "saturated": (1.0 if radius is None else radius) * d}[kind]
        X.append(x), A.append(a), W1.append(w1 * scale), W0.append(w0 * scale)
    return np.array(X), np.array(A), np.array(W1), np.array(W0)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=8), t=st.floats(0.01, 3.0),
       zero_kink=st.booleans(), radius=st.none() | st.floats(0.05, 1.0))
def test_nodal_prox_matches_the_point_prox_row_by_row(rows, t, zero_kink,
                                                      radius):
    # a batch mixes every kind of row, so a mask that leaks from one row
    # into another shows as a row off its own point prox
    X, A, W1, W0 = _nodal_rows(rows, radius)
    Z = prox_nodal(X, t, W1, A, W0 if zero_kink else None, radius, A)
    for x, a, w1, w0, z in zip(X, A, W1, W0, Z):
        w0 = w0 if zero_kink else 0.0
        y = prox_nonsmooth(x, t, w1, a, w0, radius)
        assert np.linalg.norm(z - y) <= 1e-12 * (1.0 + np.linalg.norm(x))
        # well inside the anchor's stuck region (and off the sphere) the
        # row is the anchor itself, bit for bit; scaled norms, as anchors
        # may be subnormal
        margin = 64.0 * np.finfo(float).eps * (math.hypot(*x) + math.hypot(*a))
        if (math.hypot(*(x - a)) + t * w0 + margin < 0.5 * t * w1
                and (radius is None or math.hypot(*a) <= radius * (1 - 1e-9))):
            assert np.array_equal(z, a)


def test_nodal_rows_stuck_at_their_anchors_are_the_anchors():
    # x within w_shift - w_zero of its anchor, inside the ball: the prox
    # is the anchor, copied bit for bit (|a| (a / |a|) need not be a)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((200, 5)) * rng.uniform(1e-3, 1.0, (200, 1))
    X = A + 1e-3 * rng.standard_normal((200, 5))
    for radius in (None, 10.0):
        Z = prox_nodal(X, 1.0, np.full(200, 0.5), A, np.full(200, 0.1), radius,
                       A)
        assert np.array_equal(Z, A)


def test_field_newton_cap_raises_with_the_residual_trail(monkeypatch):
    fp = coupled_field_problem(3, np.random.default_rng(31))
    solve_field(fp, fp.anchor, TOL)
    monkeypatch.setattr(proxsolve, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergence,
                       match=r"stalled after 1 steps; \|g\| trail "
                             r"\d\.\d\de[+-]\d\d$") as err:
        solve_field(fp, fp.anchor, TOL)
    # the row's root names its row
    assert re.match(r"nodal prox row \d+: multiplier root stalled",
                    str(err.value))


def test_nodal_row_check_names_the_row_that_fails(monkeypatch):
    # a plane step that always answers "stuck at the anchor" is right on
    # row 0 (x at its anchor, |w_zero| <= w_shift) and wrong on row 1
    X = np.array([[0.3, 0.1, 0.0, 0.0, 0.0], [2.0, -1.0, 0.5, 0.0, 0.0]])
    A = np.array([[0.3, 0.1, 0.0, 0.0, 0.0], [0.1, 0.2, 0.0, 0.0, 0.0]])
    prox_nodal(X, 1.0, [0.5, 0.5], A, [0.2, 0.2], None, A)
    monkeypatch.setattr(proxsolve, "_plane_step",
                        lambda beta, alpha, modulus, w0, w1, radius, core, s0,
                        trail: alpha)
    number = r"\d\.\d{3}e[+-]\d\d"
    with pytest.raises(NonConvergence,
                       match=rf"^nodal prox row 1 left first-order residual "
                             rf"{number} \(bound {number}\)$"):
        prox_nodal(X, 1.0, [0.5, 0.5], A, [0.2, 0.2], None, A)


def _repr_run(step):
    """repr of (result, |g| trail) of step(trail), "stalled" for a result
    when it raises NonConvergence; repr tells -0.0 and nan apart."""
    trail = []
    try:
        return repr((step(trail), trail))
    except NonConvergence:
        return repr(("stalled", trail))


@settings(max_examples=300, deadline=None)
@given(xi=st.tuples(st.floats(-4, 4), st.floats(0, 4)),
       kind=st.sampled_from(("general", "tiny", "subnormal", "zero",
                             "beyond")),
       length=st.floats(0.0, 1.5), log_tiny=st.floats(-200.0, -20.0),
       log_subnormal=st.floats(-323.0, -308.0), beyond=st.floats(0.0, 0.35),
       k0=st.floats(0.0, 2.0), k1=st.floats(0.0, 2.0), r=st.floats(0.05, 2.0),
       modulus=st.sampled_from((1.0, 3.0)), start=st.none() | st.floats(0, 3),
       rho=st.sampled_from((1e-4, 1e-2, 0.1, 1.0)))
@example(xi=(4.0, 1.0), kind="beyond", length=0.0, log_tiny=-20.0,
         log_subnormal=-308.0, beyond=0.15, k0=0.0, k1=0.0, r=2.0,
         modulus=1.0, start=None, rho=0.1)
def test_fused_root_is_the_closure_root_bit_for_bit(
        xi, kind, length, log_tiny, log_subnormal, beyond, k0, k1, r, modulus,
        start, rho):
    # the fused step evaluates z(mu), g(mu) and the core inline with the
    # expressions of the composition it replaced (the sphere, the anchor and
    # origin tests, the radial return through closures), so from the same
    # start it is the same float pair after the same steps; "beyond" puts
    # the anchor past c3 (the core's penalty pieces), as do large xi
    p = MaterialParams(rho=rho)
    A = {"general": length, "tiny": 10.0 ** log_tiny,
         "subnormal": 10.0 ** log_subnormal, "zero": 0.0,
         "beyond": p.c3 + beyond}[kind]
    alpha, cap = (A, 0.0), proxsolve.NEWTON_MAX_ITER
    s0 = A if start is None else start
    cases = [(modulus, k0, k1, r, None), (modulus, k0, k1, None, None),
             (2.0 * p.c2, 0.0, p.R, None, p), (modulus, k0, k1, None, p)]
    for args in cases:
        # the anchor's core values, formed by the caller as point_path does
        core_a = None if args[-1] is None else radial_core_at(p, A)
        fused = _repr_run(lambda tr: proxsolve._plane_step(xi, alpha, *args,
                                                           s0, tr, core_a))
        composed = _repr_run(lambda tr: oracles.plane_step(xi, alpha, *args,
                                                           s0, tr, cap))
        assert fused == composed


@settings(max_examples=300, deadline=None)
@given(b=st.lists(st.floats(-4, 4), min_size=5, max_size=5),
       direction=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       kind=st.sampled_from(("general", "tiny", "subnormal", "zero")),
       load=st.sampled_from(("general", "on-line", "near-line", "zero")),
       length=st.floats(0.0, 1.5), log_tiny=st.floats(-200.0, -20.0),
       log_subnormal=st.floats(-323.0, -308.0), scale=st.floats(-3.0, 3.0),
       rho=st.sampled_from((0.0, 1e-4, 1e-2, 0.1, 1.0)),
       c2=st.sampled_from((0.5, 1.5)))
def test_point_kernel_is_the_numpy_plane_kernel_bit_for_bit(
        b, direction, kind, load, length, log_tiny, log_subnormal, scale, rho,
        c2):
    # the one-load point_path forms its plane on floats, as numpy's
    # elementwise ufuncs round it, and keeps numpy's dot for beta0; the
    # anchor may be zero, subnormal or tiny, b on its line or 0; "near-line"
    # puts both on axes, b off the anchor's line by subnormals, so e2 is
    # normalized again
    p = MaterialParams(rho=rho, c2=c2)
    u = np.array(direction)
    n = np.linalg.norm(u)
    u = u / n if n > 0.0 and load != "near-line" else np.eye(5)[0]
    A = {"general": length * (p.c3 if rho == 0.0 else 1.0),
         "tiny": 10.0 ** log_tiny, "subnormal": 10.0 ** log_subnormal,
         "zero": 0.0}[kind]
    anchor = A * u
    b = {"general": np.array(b), "on-line": scale * u,
         "near-line": scale * u + np.array([0.0, 1e-310, 3e-311, 0.0, 0.0]),
         "zero": np.zeros(5)}[load]
    pb = (PointProblem(b, p.c2, p.R, anchor, core=p) if rho > 0.0 else
          PointProblem(b, p.c2, p.R, anchor, w_zero=p.c1, radius=p.c3))
    cap = proxsolve.NEWTON_MAX_ITER
    fused = _repr_run(lambda tr: _bits(proxsolve.point_path(pb, b[None],
                                                            anchor, tr)[0]))
    numpy_plane = _repr_run(lambda tr: _bits(oracles.point_kernel(
        pb, b, anchor, tr, cap)))
    assert fused == numpy_plane


def _bits(z):
    # an array's repr rounds its entries; a list of floats shows every bit
    return z.tolist(), z.dtype.str


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(1, 40), peak=st.floats(0.0, 6.0),
       turn=st.sampled_from((0.0, 0.5, 3.0)),
       u=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       v=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       kind=st.sampled_from(("general", "on-line", "tiny", "subnormal",
                             "zero")),
       length=st.floats(0.0, 1.0), log_tiny=st.floats(-200.0, -20.0),
       log_subnormal=st.floats(-323.0, -308.0),
       zeros=st.lists(st.integers(0, 39), max_size=3),
       rho=st.sampled_from((0.0, 1e-4, 1e-2, 0.1, 1.0)),
       c2=st.sampled_from((0.5, 1.5)))
@example(steps=40, peak=6.0, turn=0.0, u=[1.0, 0, 0, 0, 0], v=[0.0] * 5,
         kind="zero", length=0.0, log_tiny=-20.0, log_subnormal=-308.0,
         zeros=[0, 20], rho=0.1, c2=0.5)
def test_point_path_is_the_step_by_step_kernel_bit_for_bit(
        steps, peak, turn, u, v, kind, length, log_tiny, log_subnormal, zeros,
        rho, c2):
    # a path keeps its anchor's norm, direction and core values while its
    # steps stay stuck at it, and forms them again when the anchor moves;
    # every row, the trail and a stall must still be those of the numpy
    # plane kernel run step by step, each step anchored at the last.  The
    # loads ramp up to the peak (past c3 for the smooth core, past
    # saturation for the ball) and back, turning in the plane of u and v,
    # so that a path has loading and stuck unloading runs; zeros puts zero
    # loads at the start and mid-path
    p = MaterialParams(rho=rho, c2=c2)
    e = np.array(u)
    n = np.linalg.norm(e)
    e = e / n if n > 0.0 else np.eye(5)[0]
    A = {"general": length * p.c3, "on-line": length * p.c3,
         "tiny": 10.0 ** log_tiny, "subnormal": 10.0 ** log_subnormal,
         "zero": 0.0}[kind]
    anchor = A * (e if kind == "on-line" else np.roll(e, 1))
    s = np.linspace(0.0, 1.0, steps)
    amp = (peak * (1.0 - np.abs(2.0 * s - 1.0)) if steps > 1
           else np.full(1, peak))
    loads = amp[:, None] * (np.cos(turn * s)[:, None] * e
                            + np.sin(turn * s)[:, None] * np.array(v))
    loads[[i for i in zeros if i < steps]] = 0.0
    pb = (PointProblem(loads[0], p.c2, p.R, anchor, core=p) if rho > 0.0 else
          PointProblem(loads[0], p.c2, p.R, anchor, w_zero=p.c1, radius=p.c3))
    cap = proxsolve.NEWTON_MAX_ITER

    def stepwise(trail):
        rows, z = [], anchor
        for b in loads:
            z = oracles.point_kernel(pb, b, z, trail, cap)
            rows.append(_bits(z))
        return rows

    path = _repr_run(lambda tr: [_bits(z) for z in proxsolve.point_path(
        pb, loads, anchor, tr)])
    assert path == _repr_run(stepwise)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=8), t=st.floats(0.01, 3.0),
       zero_kink=st.booleans(), radius=st.none() | st.floats(0.05, 1.0),
       start_scale=st.floats(0.0, 2.0))
def test_nodal_prox_started_at_a_field_agrees_with_the_anchor_start(
        rows, t, zero_kink, radius, start_scale):
    # a start field moves only where each row's radial return starts: the
    # prox is the same to roundoff, whatever the start, zero rows included
    X, A, W1, W0 = _nodal_rows(rows, radius)
    W0 = W0 if zero_kink else None
    Z = prox_nodal(X, t, W1, A, W0, radius, A)
    for start in (start_scale * Z, start_scale * X[::-1], np.zeros_like(X)):
        Z_start = prox_nodal(X, t, W1, A, W0, radius, start)
        bound = 1e-12 * (1.0 + np.linalg.norm(X, axis=1))
        assert np.all(np.linalg.norm(Z_start - Z, axis=1) <= bound)


def test_tiny_anchor_at_the_kink_does_not_stall_the_root():
    # an anchor far below the roundoff of x made the anchor's multiplier
    # guess so large that the root's Newton steps only halved it; with no
    # shifted kink the prox is the radial shrinkage of x
    x = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for A in (1e-320, 1e-310, 1e-200, 1e-150):
        for w1 in (0.0, 1e-20):
            a = np.array([A, 0.0, 0.0, 0.0, 0.0])
            y = prox_nonsmooth(x, 1.0, w1, a, 0.5)
            assert np.linalg.norm(y - 0.5 * x) <= 1e-12
            y_nodal = prox_nodal(x[None], 1.0, w1, a[None], 0.5, None,
                                 a[None])[0]
            assert np.linalg.norm(y_nodal - y) <= 1e-12


def test_nearly_collinear_saturated_sharp_step_is_exact():
    # the minimizer (|z| ~ 3.8e-6) lies far inside the anchor's sphere
    # |alpha| = c3 = 1; forming z(mu) as alpha + d c cancelled there, and the
    # multiplier root amplified the error past the residual bound
    p = MaterialParams(rho=0.0)
    b = np.array(NEARLY_COLLINEAR)
    pb = reduced_problem(p, dev_to_sym(b), p.c3 * b / np.linalg.norm(b))
    z = solve_point(pb)
    t = 1.0 / (2.0 * pb.c2)
    z_nodal = prox_nodal((pb.b * t)[None], t, pb.w_shift, pb.anchor[None],
                         pb.w_zero, pb.radius, pb.anchor[None])[0]
    assert np.linalg.norm(z_nodal - z) <= 1e-15
    # the prox is the minimizer: its value beats nearby points on the ball
    J = lambda y: pb.smooth(y) + pb.w_zero * np.linalg.norm(y) \
        + pb.w_shift * np.linalg.norm(y - pb.anchor)
    assert all(J(z) <= J(z + 1e-7 * e) for e in np.eye(5))


# where a row of first_order_rows' batch sits: at or off each kink center
# (the origin and the row's own center), within roundoff of one, on the
# sphere or inside the ball
_PLACES = ("origin", "near-origin", "center", "near-center", "off", "sphere",
           "inside")


@settings(max_examples=200, deadline=None)
@given(places=st.lists(st.sampled_from(_PLACES), min_size=1, max_size=12),
       radius=st.none() | st.floats(0.05, 2.0),
       g_scale=st.sampled_from([0.0, 1e-320, 1e-3, 0.3, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_first_order_rows_is_first_order_residual_row_by_row(places, radius,
                                                             g_scale, seed):
    rng = np.random.default_rng(seed)
    m, r = len(places), 1.0 if radius is None else radius
    unit = rng.standard_normal((m, 5))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    C = r * rng.uniform(0.0, 1.0, (m, 1)) * unit[::-1]
    tiny = 1e-17 * rng.standard_normal((m, 5))
    Z = np.array([{"origin": np.zeros(5), "near-origin": t, "center": c,
                   "near-center": c + t, "off": r * rng.uniform() * u,
                   "sphere": r * u, "inside": 0.5 * r * u}[place]
                  for place, u, c, t in zip(places, unit, C, tiny)])
    G = g_scale * rng.standard_normal((m, 5))
    W0, W1 = rng.uniform(0.0, 2.0, m), rng.uniform(0.0, 2.0, m)
    V = -G
    res, floor = first_order_rows(Z, V, ((None, 0.0, W0),
                                         (C, np.linalg.norm(C, axis=1), W1)),
                                  radius)
    for z, g, c, w0, w1, res_i, floor_i, v in zip(Z, G, C, W0, W1, res, floor,
                                                  V):
        want, nz, share = first_order_residual(z, g, ((np.zeros(5), w0),
                                                      (c, w1)), radius)
        tol = 64.0 * np.finfo(float).eps * (1.0 + nz + share)
        assert abs(res_i - want) <= tol
        assert floor_i == pytest.approx(1.0 + nz + share, rel=1e-12)
        # V is left as minus a subgradient of norm max(residual, 0)
        assert abs(np.linalg.norm(v) - max(want, 0.0)) <= tol


@pytest.mark.parametrize("m", [0, 1, 2, 27, 1331])
def test_row_norms_are_the_numpy_reductions_bit_for_bit(m):
    rng = np.random.default_rng(m)
    V = rng.standard_normal((m, 5)) * np.exp(rng.uniform(-690.0, 690.0, (m, 5)))
    special = np.array([[0.0] * 5, [-0.0, 0.0, 0.0, 0.0, -0.0],
                        [5e-324, -5e-324, 1e-310, 0.0, 2e-308],
                        [1e300, -1e300, 1e300, 1e300, 1e300],
                        [np.inf, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, -np.inf, 2.0, 0.0],
                        [np.nan, 1.0, 0.0, 0.0, 0.0], [np.inf, np.nan, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, np.nan]])
    V[:len(special)] = special[:m]
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = ((proxsolve.row_norms(V), np.linalg.norm(V, axis=1)),
                 (proxsolve.row_hypot(V), np.hypot.reduce(V, axis=1)))
    for got, want in pairs:
        assert got.shape == (m,)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
