import math

import numpy as np
import pytest

import oracles
from smaevol.material import (BALL_SLACK, RHO_FLOOR, MaterialParams, _penalty,
                              radial_core, radial_core_at,
                              stored_energy_density, transformation_energy,
                              transformation_energy_grad,
                              transformation_energy_sharp,
                              transformation_energy_smooth)
from smaevol.tensors import (DEV_BASIS, Elasticity, dev_split, dev_to_sym,
                             inner, trace)

RNG = np.random.default_rng(7)

P0 = MaterialParams()                       # sharp default, rho = 0
PS = MaterialParams(rho=1.0)
PS_SMALL = MaterialParams(rho=0.1)


def unit5():
    e = RNG.standard_normal(5)
    return e / np.linalg.norm(e)


def test_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(c3=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(rho=-0.1)
    with pytest.raises(ValueError):
        MaterialParams(R=0.0)


def test_a_rho_below_the_floor_is_rejected():
    # below the floor the core's c1 rho^2 / q^3 at r = 0 would divide by a
    # q^3 that underflows to 0
    with pytest.raises(ValueError, match=r"rho must be 0 or >= 2\.8e-103 "
                                         r"\(got 1e-110\)"):
        MaterialParams(rho=1e-110)
    for rho in (RHO_FLOOR, 1e-100):
        value, d1, d2 = radial_core_at(MaterialParams(rho=rho), 0.0)
        assert value == d1 == 0.0 and math.isfinite(d2) and d2 > 0.0
    assert MaterialParams(rho=0.0).rho == 0.0


def test_alpha_value_at_defaults():
    # dev block [[2, -2], [-2, 3]] has lambda_min = (5 - sqrt(17))/2
    lam = (5.0 - math.sqrt(17.0)) / 2.0
    assert P0.alpha == pytest.approx(lam / 2.0)


def test_alpha_is_the_midpoint_convexity_constant():
    # W(mid) <= (W1 + W2)/2 - (alpha/4) |y1 - y2|^2 must hold and be near
    # sharp along the minimizing direction of the quadratic block
    p = PS
    a = p.alpha
    for _ in range(200):
        e1, z1 = RNG.standard_normal(6), RNG.standard_normal(5) * 0.4
        e2, z2 = RNG.standard_normal(6), RNG.standard_normal(5) * 0.4
        w1 = stored_energy_density(p, e1, z1)
        w2 = stored_energy_density(p, e2, z2)
        wm = stored_energy_density(p, (e1 + e2) / 2, (z1 + z2) / 2)
        gap = float(np.sum((e1 - e2) ** 2) + np.sum((z1 - z2) ** 2))
        assert wm <= 0.5 * w1 + 0.5 * w2 - (a / 4.0) * gap * (1 - 1e-9) + 1e-12


def _penalty_at(p, r):
    """phi, phi' and phi'' at the float radius r, read off radial_core_at as
    the core less its sqrt term (exact zeros where the core has no penalty)."""
    q = math.sqrt(p.rho ** 2 + r * r)
    value, d1, d2 = radial_core_at(p, r)
    return ((value - p.c1 * (q - p.rho)) * p.rho, (d1 - p.c1 * r / q) * p.rho,
            (d2 - p.c1 * p.rho ** 2 / q ** 3) * p.rho)


def test_penalty_shape():
    p = PS
    r = np.linspace(0, 2.0, 400)
    q = np.sqrt(p.rho ** 2 + r ** 2)
    value, d1 = radial_core(p, r)
    ph = (value - p.c1 * (q - p.rho)) * p.rho
    inside = r <= p.c3
    assert np.all(ph[inside] == 0.0)
    assert np.all(d1[inside] == (p.c1 * r / q)[inside])
    assert np.all(ph[~inside] > 0.0)
    at = np.array([_penalty_at(p, float(x)) for x in r])
    assert np.all(at[inside] == 0.0)
    assert at[~inside, 0] == pytest.approx(ph[~inside])
    # second derivative peak 6/delta at c3 + delta, derivative saturates at 6
    assert _penalty_at(p, p.c3 + p.delta)[2] == pytest.approx(6.0 / p.delta)
    assert _penalty_at(p, p.c3 + 2 * p.delta)[1] == pytest.approx(6.0)
    assert _penalty_at(p, p.c3 + 5 * p.delta)[1] == pytest.approx(6.0)
    assert _penalty_at(p, p.c3 + 5 * p.delta)[2] == pytest.approx(0.0, abs=1e-12)
    # C^1 continuity across the knots
    for r0 in (p.c3, p.c3 + p.delta, p.c3 + 2 * p.delta):
        h = 1e-7
        above, below = _penalty_at(p, r0 + h), _penalty_at(p, r0 - h)
        assert above[1] == pytest.approx(below[1], abs=1e-4)
        assert above[0] == pytest.approx(below[0], abs=5e-6)


def _penalty_inputs(p):
    """Arrays of radii that cover every branch, the knots and their float
    neighbours, 0, subnormal radii and non-finite values."""
    d = p.delta
    knots = np.array([p.c3, p.c3 + d, p.c3 + 2 * d])
    grid = np.concatenate([np.linspace(0.0, p.c3 + 3 * d, 601), knots,
                           np.nextafter(knots, -np.inf),
                           np.nextafter(knots, np.inf)])
    assert set(knots) <= set(grid)
    rng = np.random.default_rng(11)
    inside = rng.uniform(0.0, p.c3, 1331)
    outside = p.c3 + rng.uniform(1e-12, 4 * d, 1331)
    mixed = np.array([0.5, np.nan, p.c3 + 0.5 * d, np.inf, -np.inf, p.c3,
                      p.c3 + 1.5 * d, np.nan, p.c3 + 5 * d, 0.0, 5e-324,
                      1e-310])
    return [grid, inside, outside, mixed, inside.reshape(-1, 11),
            np.full(4, np.nan), np.array([np.inf, -np.inf]), np.array([]),
            np.array([0.5]), np.array([p.c3 + 0.5 * d])]


@pytest.mark.parametrize("name", ["penalty", "penalty_d1", "penalty_d2"])
@pytest.mark.parametrize("p", [PS_SMALL,
                               MaterialParams(rho=0.01, c3=0.7, delta=0.03)],
                         ids=["default", "narrow"])
def test_masked_penalty_matches_the_whole_array_oracle_bit_for_bit(name, p):
    # both evaluators skip the penalty on the radii inside the ball; every
    # value, NaN included (a NaN iterate must still fail the residual
    # check), must stay as the whole-array evaluation of every piece had it
    k = ["penalty", "penalty_d1", "penalty_d2"].index(name)
    old = (oracles.radial_core_value, oracles.radial_core_d1,
           oracles.radial_core_d2)[k]
    for r in _penalty_inputs(p):
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf
            got = np.array([radial_core_at(p, float(x))[k] for x in r.ravel()])
            if k < 2:   # the float evaluator gives the array evaluator's bits
                want = old(p, r)
                assert radial_core(p, r)[k].tobytes() == want.tobytes(), r
            else:       # phi'' has only the float evaluator: scalar powers
                want = np.array([old(p, x) for x in r.ravel().tolist()])
        assert got.tobytes() == want.ravel().tobytes(), r


def test_penalty_derivatives_consistent():
    # keep sample points away from the curvature kinks, where central
    # differences of the C^{1,1} pieces pick up O(h * jump) error
    p = PS
    r = np.linspace(0.5, 1.5, 201)
    knots = np.array([p.c3, p.c3 + p.delta, p.c3 + 2 * p.delta])
    r = r[np.min(np.abs(r[:, None] - knots[None, :]), axis=1) > 1e-3]
    h = 1e-6
    fd1 = (radial_core(p, r + h)[0] - radial_core(p, r - h)[0]) / (2 * h)
    assert np.max(np.abs(fd1 - radial_core(p, r)[1])) < 1e-5
    fd2 = (radial_core(p, r + h)[1] - radial_core(p, r - h)[1]) / (2 * h)
    d2 = np.array([radial_core_at(p, float(x))[2] for x in r])
    assert np.max(np.abs(fd2 - d2)) < 1e-4


def _core_radii(p, size):
    """size radii: 0, tiny ones, radii inside the ball, c3, each penalty
    branch with the knots c3 + delta and c3 + 2 delta and their float
    neighbours, a NaN, then random radii over every branch."""
    d = p.delta
    knots = np.array([p.c3, p.c3 + d, p.c3 + 2 * d])
    special = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-8, 0.3 * p.c3, p.c3 + 0.5 * d,
         p.c3 + 1.5 * d, p.c3 + 5 * d, np.nan],
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    rng = np.random.default_rng(size)
    return np.concatenate([special, rng.uniform(0.0, p.c3 + 4 * d,
                                                size - len(special))])


# c3 = 2^-6 makes c3 + delta and c3 + 2 delta exact: s hits both knots,
# where the pieces on either side round differently
@pytest.mark.parametrize("size", [27, 1331])
@pytest.mark.parametrize("p", [PS_SMALL,
                               MaterialParams(rho=0.01, c3=0.7, delta=0.03),
                               MaterialParams(rho=0.1, c3=2.0 ** -6)],
                         ids=["default", "narrow", "exact-knots"])
def test_float_core_matches_the_array_core_bit_for_bit(p, size):
    r = _core_radii(p, size)
    value, d1 = radial_core(p, r)
    at = np.array([radial_core_at(p, float(x))[:2] for x in r])
    assert at[:, 0].tobytes() == value.tobytes()
    assert at[:, 1].tobytes() == d1.tobytes()
    assert np.isnan(value[8]) and np.isnan(d1[8])
    with pytest.raises(ValueError):
        radial_core(P0, r)
    with pytest.raises(ValueError):
        radial_core_at(P0, 0.5)


@pytest.mark.parametrize("size", [27, 1331])
@pytest.mark.parametrize("p", [PS_SMALL,
                               MaterialParams(rho=0.01, c3=0.7, delta=0.03),
                               MaterialParams(rho=0.1, c3=2.0 ** -6)],
                         ids=["default", "narrow", "exact-knots"])
def test_penalty_pieces_on_their_own_radii_match_every_piece_oracle(p, size):
    # s = r - c3 on both sides of c3, c3 + delta and c3 + 2 delta (and on
    # them), random s over every piece and a NaN, which goes to the last
    # piece as under the nested np.where; phi and phi', bit for bit
    s = np.r_[_core_radii(p, size), p.c3 - 0.5 * p.delta] - p.c3
    with np.errstate(invalid="ignore"):
        for got, k in zip(_penalty(s, p.delta), (0, 1)):
            want = oracles.penalty_every_piece(k, s, p.delta)
            assert got.tobytes() == want.tobytes(), k
        nan = _penalty(np.array([np.nan]), p.delta)
    assert np.isnan(nan[0]).all() and nan[1].tolist() == [6.0]


def _stack_case(p, rng, n=64):
    """n strains and deviators of radii 0 to 2 c3: random rows, z = 0, and
    rows just inside and just outside c3 (1 + BALL_SLACK) and on c3."""
    eps = 2.0 * rng.standard_normal((n, 6))
    z = rng.standard_normal((n, 5))
    radii = rng.uniform(0.0, 2.0 * p.c3, n)
    edge = p.c3 * (1.0 + BALL_SLACK)
    radii[:6] = [edge * (1 - 1e-13), edge * (1 + 1e-13), p.c3, 0.0,
                 edge * (1 - 1e-13), edge * (1 + 1e-13)]
    return eps, z / np.linalg.norm(z, axis=1)[:, None] * radii[:, None]


@pytest.mark.parametrize("p", [P0, PS_SMALL], ids=["sharp", "smooth"])
def test_stacks_match_single_point_calls_row_by_row(p):
    # the elementwise maps, the row sums and the batched deviator give each
    # row the bits of its single-point call, and so does the stored energy
    eps, z = _stack_case(p, np.random.default_rng(3))
    E = Elasticity(G=1.3, kappa=0.7)
    rows = lambda f, *a: np.array([f(*x) for x in zip(*a)])
    for f, args in ((E.apply, (eps,)), (E.apply_inverse, (eps,)),
                    (trace, (eps,)), (dev_to_sym, (z,)), (inner, (z, z)),
                    (inner, (eps, eps)), (lambda x: dev_split(x)[0], (eps,)),
                    (lambda x: dev_split(x)[1], (eps,)),
                    (lambda x: transformation_energy(p, x), (z,)),
                    (lambda e, x: stored_energy_density(p, e, x), (eps, z))):
        assert f(*args).tobytes() == rows(f, *args).tobytes()
    assert all(dev_split(e)[0].tobytes() == (DEV_BASIS.T @ e).tobytes()
               for e in eps)
    assert all(dev_to_sym(x).tobytes() == (DEV_BASIS @ x).tobytes()
               for x in z)
    finite = np.isfinite(stored_energy_density(p, eps, z))
    outside = np.linalg.norm(z, axis=1) > p.c3 * (1.0 + BALL_SLACK)
    assert outside[[1, 5]].all() and not outside[[0, 2, 3, 4]].any()
    assert np.array_equal(~finite, outside & (p.rho == 0))


def test_sharp_energy_examples():
    assert transformation_energy_sharp(P0, np.zeros(5)) == 0.0
    e = unit5()
    assert transformation_energy_sharp(P0, e) == pytest.approx(1.5)
    assert transformation_energy_sharp(P0, 1.01 * e) == math.inf


def test_smooth_energy_examples():
    assert transformation_energy_smooth(PS, np.zeros(5)) == 0.0
    e = unit5()
    # c1 (sqrt(2) - 1) + c2, with the penalty inactive at the boundary
    assert transformation_energy_smooth(PS, e) == pytest.approx(math.sqrt(2) - 1 + 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        transformation_energy_smooth(P0, e)


def test_smooth_below_sharp_and_monotone_in_rho():
    rhos = [1.0, 0.5, 0.25, 0.125, 0.0625]
    e = unit5()
    radii = np.linspace(0.0, 2.0, 41)
    prev = None
    for rho in rhos:
        p = MaterialParams(rho=rho)
        vals = np.array([transformation_energy_smooth(p, r * e) for r in radii])
        sharp = np.array([transformation_energy_sharp(p, r * e) for r in radii])
        assert np.all(vals <= sharp)
        if prev is not None:
            # shrinking rho increases the energy pointwise, exactly
            assert np.all(vals >= prev)
        prev = vals


def test_grad_finite_differences():
    for p in (PS, PS_SMALL):
        h = 1e-5
        for _ in range(100):
            z = RNG.standard_normal(5) * RNG.uniform(0, 2 * p.c3 / math.sqrt(5))
            g = transformation_energy_grad(p, z)
            fd = np.zeros(5)
            for k in range(5):
                dz = np.zeros(5)
                dz[k] = h
                fd[k] = (transformation_energy_smooth(p, z + dz)
                         - transformation_energy_smooth(p, z - dz)) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))


def test_grad_zero_at_origin():
    assert np.all(transformation_energy_grad(PS, np.zeros(5)) == 0.0)


def test_radial_core_curvatures_lie_in_the_curvature_bound():
    # the core's Hessian is d2 on the radial direction and d1/r across it;
    # both lie in [0, core_curvature], the bound the solvers' step sizes
    # rely on, on the ball, across every penalty piece and beyond
    for p in (PS, PS_SMALL):
        kinks = p.c3 + p.delta * np.arange(3)
        radii = np.concatenate([np.linspace(0.0, p.c3 + 3 * p.delta, 1301),
                                kinks])
        for r in radii.tolist():
            _, d1, d2 = radial_core_at(p, r)
            assert 0.0 <= d2 <= p.core_curvature, (p.rho, r)
            if r > 0:
                assert 0.0 <= d1 / r <= p.core_curvature, (p.rho, r)


def test_stored_energy_examples():
    assert stored_energy_density(PS, np.zeros(6), np.zeros(5)) == 0.0
    z = 0.5 * unit5()
    eps = dev_to_sym(z)
    assert stored_energy_density(PS, eps, z) == pytest.approx(
        transformation_energy_smooth(PS, z), rel=1e-12)


def test_stored_energy_lower_bound():
    # W >= G |eps_dev - z|^2 + kappa/2 tr^2 + c2 |z|^2 with the c1/penalty
    # parts dropped
    for p in (P0, PS):
        for _ in range(50):
            eps = RNG.standard_normal(6)
            z = RNG.standard_normal(5) * 0.4
            w = stored_energy_density(p, eps, z)
            from smaevol.tensors import dev_split
            d, tr = dev_split(eps)
            lb = (p.elastic.G * float(np.sum((d - z) ** 2))
                  + 0.5 * p.elastic.kappa * tr ** 2 + p.c2 * float(z @ z))
            assert w >= lb - 1e-12
