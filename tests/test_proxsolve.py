import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smaevol.proxsolve as proxsolve
from oracles import (BBPointProblem, bb_solve_point, dykstra_prox,
                     planar_step_oracle)
from smaevol.material import MaterialParams
from smaevol.constitutive import incremental_step, reduced_problem
from smaevol.proxsolve import (NonConvergence, PointProblem, SolveInfo,
                               StepProblem, prox_nodal, prox_nonsmooth,
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
    info = SolveInfo()
    bb_solve_point(BBPointProblem.of(pb), TOL, info=info)
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


def test_nonconvergence_raises():
    fp = coupled_field_problem(3, np.random.default_rng(37))
    fp.lipschitz *= 1e4
    with pytest.raises(NonConvergence):
        solve_field(fp, fp.anchor, 1e-14, max_iter=2)


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
                         None if w0 is None else [w0], radius)[0]
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


@settings(max_examples=200, deadline=None)
@given(b=st.lists(st.floats(-4, 4), min_size=5, max_size=5),
       direction=st.lists(st.floats(-1, 1), min_size=5, max_size=5),
       length=st.floats(-1.3, 1.3),
       kind=st.sampled_from(("general", "collinear", "saturated", "zero")),
       rho=st.sampled_from((0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)))
def test_point_kernel_matches_the_prox_gradient_oracle(b, direction, length,
                                                       kind, rho):
    p = MaterialParams(rho=rho)
    b = np.array(b)
    anchor = _anchor(b, np.array(direction), length, kind, p)
    pb = reduced_problem(p, dev_to_sym(b), anchor)
    z = solve_point(pb)
    oracle = BBPointProblem.of(pb)
    J = lambda y: pb.smooth(y) + oracle.nonsmooth(y)
    info = SolveInfo()
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


def test_point_path_runs_no_iterative_loop(monkeypatch):
    # the point step is exact: neither the prox-gradient loop of the field
    # step nor the field's rowwise prox runs for it
    def forbidden(*args, **kwargs):
        raise AssertionError("iterative field solver on the point path")

    monkeypatch.setattr(proxsolve, "_prox_gradient", forbidden)
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
        out = prox_nodal(X, t, [w1, w1], A, [w0, w0], r)
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
    z_one = solve_field(one, fp.anchor, TOL)
    z_per_node = solve_field(per_node, fp.anchor, TOL)
    assert np.array_equal(z_one, z_per_node)
    assert one.nonsmooth(z_one) == per_node.nonsmooth(z_one)


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


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=8), t=st.floats(0.01, 3.0),
       zero_kink=st.booleans(), radius=st.none() | st.floats(0.05, 1.0))
def test_nodal_prox_matches_the_point_prox_row_by_row(rows, t, zero_kink,
                                                      radius):
    # a batch mixes every kind of row, so a mask that leaks from one row
    # into another shows as a row off its own point prox
    X, A, W1, W0 = [], [], [], []
    for kind, x, direction, length, log_scale, log_tiny, w1, w0 in rows:
        scale = 10.0 ** log_scale
        x, d = np.array(x) * scale, np.array(direction)
        d = d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.eye(5)[0]
        a = {"zero": np.zeros(5), "collinear": length * x,
             "general": length * scale * d, "subnormal": 10.0 ** log_tiny * d,
             "saturated": (1.0 if radius is None else radius) * d}[kind]
        X.append(x), A.append(a), W1.append(w1 * scale), W0.append(w0 * scale)
    X, A = np.array(X), np.array(A)
    Z = prox_nodal(X, t, np.array(W1), A, np.array(W0) if zero_kink else None,
                   radius)
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
        Z = prox_nodal(X, 1.0, np.full(200, 0.5), A, np.full(200, 0.1), radius)
        assert np.array_equal(Z, A)


def test_field_newton_cap_raises_with_the_residual_trail(monkeypatch):
    fp = coupled_field_problem(3, np.random.default_rng(31))
    solve_field(fp, fp.anchor, TOL)
    monkeypatch.setattr(proxsolve, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergence,
                       match=r"stalled after 1 steps; \|g\| trail "
                             r"\d\.\d\de[+-]\d\d$"):
        solve_field(fp, fp.anchor, TOL)


def test_nodal_row_check_names_the_row_that_fails(monkeypatch):
    # an interior prox that always answers "stuck at the anchor" is right
    # on row 0 (x at its anchor, |w_zero| <= w_shift) and wrong on row 1
    X = np.array([[0.3, 0.1, 0.0, 0.0, 0.0], [2.0, -1.0, 0.5, 0.0, 0.0]])
    A = np.array([[0.3, 0.1, 0.0, 0.0, 0.0], [0.1, 0.2, 0.0, 0.0, 0.0]])
    prox_nodal(X, 1.0, [0.5, 0.5], A, [0.2, 0.2])
    monkeypatch.setattr(proxsolve, "_interior_prox",
                        lambda xi, alpha, k0, k1, trail: alpha)
    number = r"\d\.\d{3}e[+-]\d\d"
    with pytest.raises(NonConvergence,
                       match=rf"^nodal prox row 1 left first-order residual "
                             rf"{number} \(bound {number}\)$"):
        prox_nodal(X, 1.0, [0.5, 0.5], A, [0.2, 0.2])


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
            y_nodal = prox_nodal(x[None], 1.0, w1, a[None], 0.5)[0]
            assert np.linalg.norm(y_nodal - y) <= 1e-12
