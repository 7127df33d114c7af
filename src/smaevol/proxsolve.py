"""Exact point kernel and proximal-gradient field kernel of the incremental step.

A point step (section 3 of the paper) minimizes, on the 5-dimensional
deviatoric space,

    F(|z|) - b.z + w_shift |z - anchor|,   F(s) = c2 s^2 + core(s) + w_zero s,

over the ball |z| <= radius when a radius is given (the sharp model has
the kink w_zero = c1 and the ball, the smooth one the core).  Every term is
invariant under the rotations that fix span(b, anchor), so the minimizer
lies in that plane, and on the anchor's line when b is parallel to the
anchor (proportional loading).  solve_point solves the plane problem
exactly, with no iterative outer loop:

* The ball is active exactly when the step's z(mu) (below) at the
  sphere's least multiplier lies on or outside it.  Otherwise the anchor
  is optimal exactly when |grad F(anchor) - b| <= w_shift, the origin (for
  a kink w_zero) exactly when |b + w_shift e| <= w_zero with e the
  anchor's direction.
* Otherwise write the optimality condition F'(|z|) z/|z| - b + w_shift q
  = 0 (q a subgradient of |. - anchor|) as mu z - b + w_shift q = 0 with
  the radial multiplier mu = F'(|z|)/|z|.  For fixed mu its solution z(mu)
  is a shrinkage about the anchor, and g(mu) = mu |z(mu)| - F'(|z(mu)|)
  changes sign exactly once, at the minimizer's mu (a radial return).  An
  active ball adds its multiplier to mu the same way, and then mu solves
  |z(mu)| = radius.  Either root is bracketed and found by safeguarded
  Newton steps; on b's line (proportional loading) the same code runs
  with every second coordinate zero.

One plane solve, _plane_step, does this in gradient units for every
caller: point_path with the modulus 2 c2, the kinks and the core of its
problem, and prox_nonsmooth (the step of c2 = 1/2) and the rows of
prox_nodal with the modulus 1.  It is one scalar function with one
multiplier loop, which forms z(mu), g, g' and the core inside the ball
inline; point_path runs a load sequence around it on floats and forms
each anchor's plane and core values once, for all the steps stuck at it.
Every scalar solve runs to roundoff and is capped at NEWTON_MAX_ITER.
The step (point_path) and its accuracy check are apart: every check of a
point result is failing_row, the first_order_rows residual of a batch of
rows against max(RESIDUAL_RTOL scale, 64 eps (curvature (1 + |z|) + the
kinks' share)).  point_residuals forms it for a point problem, in
gradient units: solve_point and a point state's stability residual are
its one-row case, the point driver's whole trajectory after its time loop
a batch.  A miss raises NonConvergence with the Newton trail; prox_nodal
checks its rows the same way.

A field step minimizes the same structure nodewise on an (m, 5) field with
per-node weights and a coupled strongly convex smooth part.  It is solved
by proximal gradient with a Barzilai-Borwein step, safeguarded by the
fallback step 1/L.  The objective is non-increasing when L bounds the
gradient's Lipschitz constant; the BVP step's L is a power-iteration
estimate with a 1.01 margin, which measured 0.9989 lambda_max at n = 12,
rho = 0; a certified bound is ROADMAP item 2.  Its rowwise prox, prox_nodal,
is a shrinkage about each anchor without the zero kink and the ball;
otherwise every row runs _plane_step, with prox_nonsmooth's change of
coordinates and residual check (failing_row; its first_order_rows the BVP
stability certificate shares) vectorized over the rows; the radial return
starts at the row radius of the start field, solve_field's iterate (on a
bvp-schedule study 2.7 Newton steps a root, 5.7 from the anchor's).  The row
loop stays scalar: on a shared 2-core x86 host a numpy op on 27 rows costs
about 1 us, a fused row about 3.9 us and a sharp 27-row call about 0.24
ms, where a masked numpy root took 1.48 ms (it won only at 729 rows, 6.6
against 12.1 ms for the row loop before the fusion).
"""

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .material import BALL_SLACK, MaterialParams, radial_core, radial_core_at

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

# iteration cap of every scalar solve of the point kernel; a bracketing
# solve halves its bracket at least every second step, so 128 steps take
# a bracket of relative width 1 to roundoff
NEWTON_MAX_ITER = 128

# the multiplier roots are sought below this bound
MU_MAX = 1e300

# a Newton solve stops after a step this small relative to the iterate:
# with quadratic convergence the step after it is at roundoff
NEWTON_STEP_RTOL = 1e-12

# a point solution must be first-order optimal to this fraction of
# 1 + |b| (or to the roundoff floor of the residual, if that is larger)
RESIDUAL_RTOL = 1e-12

# iteration cap of solve_field
FIELD_MAX_ITER = 20000

# the most a stable state's stability measure may be: a point state's
# probed violation and residual, a field state's certified bound
STABILITY_TOL = 1e-8


class NonConvergence(Exception):
    """Raised when an iterative solve exhausts its iteration budget."""


def _norm(v) -> float:
    # scaled: no underflow for tiny vectors
    return math.hypot(*v.tolist())


def _trail(values) -> str:
    return " ".join(f"{v:.2e}" for v in values)


def row_norms(V):
    """np.linalg.norm(V, axis=1) of an (m, k >= 2) array, bit for bit (it
    sums a short row in order), without a strided reduction per row."""
    Q = V * V
    s = Q[:, 0] + Q[:, 1]
    for j in range(2, Q.shape[1]):
        s += Q[:, j]
    return np.sqrt(s)


def row_hypot(V):
    """np.hypot.reduce(V, axis=1) of an (m, k >= 2) array, bit for bit."""
    h = np.hypot(V[:, 0], V[:, 1])
    for j in range(2, V.shape[1]):
        np.hypot(h, V[:, j], out=h)
    return h


# ---------------------------------------------------------------------------
# the point problem and its exact solve


@dataclass
class PointProblem:
    """One incremental minimization on a (5,) point.

    Minimize c2 |z|^2 + core(|z|) + w_zero |z| - b.z + w_shift |z - anchor|
    subject to |z| <= radius (no constraint when radius is None).  core is
    the smooth non-quadratic radial core of the given material (rho > 0),
    which comes without the zero kink and the ball; None leaves a
    quadratic profile.  smooth and grad evaluate the differentiable part
    c2 |z|^2 + core(|z|) - b.z at one point: point_residuals forms -grad on
    rows, the one check of every point result (a solve, a trajectory, a
    state's stability); the tests check grad against smooth, the objective
    of their prox-gradient oracle.
    """

    b: np.ndarray
    c2: float
    w_shift: float
    anchor: np.ndarray
    w_zero: float = 0.0
    radius: Optional[float] = None
    core: Optional[MaterialParams] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.anchor = np.asarray(self.anchor, dtype=float)
        if self.core is not None and (self.w_zero or self.radius is not None):
            raise ValueError("the smooth core takes neither a zero kink nor a ball")

    def smooth(self, z) -> float:
        r = _norm(z)
        val = self.c2 * r * r - float(self.b @ z)
        if self.core is not None:
            val += radial_core_at(self.core, r)[0]
        return val

    def grad(self, z) -> np.ndarray:
        g = 2.0 * self.c2 * z - self.b
        r = _norm(z)
        if self.core is not None and r > 0:
            g = g + (radial_core_at(self.core, r)[1] / r) * z
        return g


def solve_point(pb: PointProblem) -> np.ndarray:
    """Exact minimizer of a point problem (see the module docstring): the
    one-load point_path's, checked by point_residuals."""
    trail = []
    z = point_path(pb, pb.b[None], pb.anchor, trail)[0]
    i, res, bound = point_residuals(pb, pb.b[None], z[None], pb.anchor[None])
    if i is not None:
        raise residual_error(res[0], bound[0], trail)
    return z


def _unit(v, n):
    """(array, list) of v / n, n = |v| > 0, normalized again if subnormal."""
    u = v / n
    if n < TINY:
        u = u / math.hypot(*u.tolist())
    return u, u.tolist()


def point_path(pb: PointProblem, loads, anchor, trail) -> np.ndarray:
    """The minimizers of pb under each load (row) of loads in place of b,
    each anchored at the last and the first at anchor: an unchecked (n, 5)
    array (solve_point checks a one-load path, run_constitutive a whole
    trajectory); the roots' |g| trails go to trail.

    A step runs on floats: e1 is the anchor's direction (the load's when the
    anchor is 0; both 0 give 0), b = beta0 e1 + beta1 e2 with beta1 >= 0, a
    unit vector normalized again at a subnormal norm.  beta0 is numpy's dot
    (BLAS rounds it its own way), every other operation elementwise, as
    numpy's ufuncs round it.  The anchor's norm, direction and core values
    are formed once per anchor, so the steps stuck at it reuse them."""
    modulus, w0, w1, core = 2.0 * pb.c2, pb.w_zero, pb.w_shift, pb.core
    a, A, rows = anchor.tolist(), None, array("d")  # raw doubles
    for b in loads:
        bl = b.tolist()
        if A is None:  # a new anchor
            A = math.hypot(*a)
            at_a = None if core is None else radial_core_at(core, A)
            if A > 0.0:
                E1, e1 = _unit(np.array(a), A)
            alpha = (A, 0.0)
        if not A > 0.0:
            n = math.hypot(*bl)
            if n == 0.0:
                a = [0.0] * 5
                rows.extend(a)
                continue
            E1, e1 = _unit(b, n)
        beta0 = float(b.dot(E1))
        perp = [v - beta0 * u for v, u in zip(bl, e1)]
        beta1 = math.hypot(*perp)
        y0, y1 = y = _plane_step((beta0, beta1), alpha, modulus, w0, w1,
                                 pb.radius, core, A, trail, at_a)
        if y != alpha:  # else stuck: the anchor and its pieces stay
            if not beta1 > 0.0:  # b on the anchor's line
                a = [y0 * u for u in e1]
            else:
                e2 = [v / beta1 for v in perp]
                if beta1 < TINY:
                    n2 = math.hypot(*e2)
                    e2 = [v / n2 for v in e2]
                a = [y0 * u + y1 * v for u, v in zip(e1, e2)]
            A = None
        rows.extend(a)
    return np.frombuffer(rows).reshape(-1, 5)


def point_residuals(pb: PointProblem, B, Z, A):
    """failing_row of the rows of Z as minimizers of pb under the loads B
    and the anchors A, row by row ((m, 5) arrays), in gradient units: V = B
    - 2 c2 z - (core'(|z|)/|z|) z, curvature 2 c2 (+ core_curvature), scale
    1 + |b|."""
    V, curvature = B - 2.0 * pb.c2 * Z, 2.0 * pb.c2
    if pb.core is not None:
        r = row_hypot(Z)
        pos = r > 0.0
        d1 = radial_core(pb.core, r)[1]
        V -= (np.where(pos, d1, 0.0) / np.where(pos, r, 1.0))[:, None] * Z
        curvature += pb.core.core_curvature
    return failing_row(Z, V, ((None, 0.0, pb.w_zero or None),
                              (A, row_hypot(A), pb.w_shift)),
                       pb.radius, curvature, 1.0 + row_hypot(B))


def prox_nonsmooth(x, t, w_shift, anchor, w_zero=0.0, radius=None):
    """Exact prox of t * (w_zero |.| + w_shift |. - anchor| + ball
    indicator): the point step of c2 = 1/2 and the weights times t."""
    return solve_point(PointProblem(x, 0.5, t * w_shift, anchor, t * w_zero,
                                    radius))


def _plane_step(beta, alpha, modulus, w0, w1, radius, core, s0, trail,
                core_a=None):
    """Minimizer of F(|x|) - beta.x + w1 |x - alpha| over |x| <= radius
    (no ball when radius is None), F(s) = modulus s^2/2 + w0 s + core(s)
    (core the radial core of a material, None for none; its core'(0) is 0,
    core_a = radial_core_at(core, A)), in plane coordinates, alpha = (A, 0).

    z(mu) = argmin mu |z|^2/2 - beta.z + w1 |z - alpha| is a shrinkage
    about alpha of norm s, nonincreasing in mu.  In order:

    * the sphere: mu = modulus + (w0 + lambda)/radius with the ball's
      multiplier lambda >= 0, so the ball is active exactly when g(mu) =
      radius - s is <= 0 at mu0 = modulus + w0/radius; its root lies
      below (|beta| + w1)/radius, and z(mu) is put on the sphere;
    * the anchor, optimal exactly when |F'(A) e1 - beta| <= w1, and the
      origin, exactly when |beta + w1 e1| <= w0;
    * the radial return: g(mu) = mu s - F'(s), F'' >= modulus > 0, is <= 0
      at mu = modulus and changes sign once, at the minimizer's mu; it
      starts at F'(s0)/s0 for a radius s0 near the minimizer's (the
      anchor's or a field iterate's), below beta's roundoff at F''(s0), as
      F'(s0)/s0 at a kink of F would underflow g' there.

    Either root is one loop: doubling from its start brackets it, then
    Newton steps run from the bracket end of smaller |g| until a step is
    below NEWTON_STEP_RTOL; a step that would leave the bracket or is not
    below half the last one (above the root at tiny rho a Newton step is
    exactly half of mu) is replaced by a bisection, geometric across a
    bracket wider than a factor 4.  Past MU_MAX the origin, a kink of F,
    is returned.  z(mu), g and g' are formed inline, the core inside the
    ball too (radial_core_at's expressions, beyond it radial_core_at).
    """
    (x0, x1), (a0, a1) = beta, alpha
    sphere = False
    if radius is not None:
        mu = modulus + w0 / radius
        # |z(mu0)|, formed as the loop forms it
        nd = math.hypot(x0 - mu * a0, x1 - mu * a1)
        if nd <= w1:
            s = math.hypot(a0, a1)
        else:
            k = w1 / nd
            c = (1.0 - k) / mu
            s = math.hypot(a0 * k + x0 * c, a1 * k + x1 * c)
        sphere = not radius > s
    if sphere:
        lo, mu = mu, max((math.hypot(x0, x1) + w1) / radius, mu)
    else:
        d = (x0 - modulus * a0) - w0
        if core is not None:
            d -= core_a[1]
            rho2, c1, c3 = core.rho ** 2, core.c1, core.c3
        if math.hypot(d, x1) <= w1:
            return alpha
        if math.hypot(x0 + w1, x1) <= w0:
            return (0.0, 0.0)
        f1, f2 = modulus * s0 + w0, modulus
        if core is not None:
            # point_path starts at A; at s0 = +-0 only F'' is read
            _, p1, p2 = core_a if s0 == a0 else radial_core_at(core, s0)
            f1, f2 = f1 + p1, f2 + p2
        guess = (min(f1 / s0, MU_MAX) if s0 > EPS * math.hypot(x0, x1)
                 else f2)
        lo, mu = modulus, guess if guess > modulus else 2.0 * modulus
    first, steps, final = None, None, False
    while True:
        d0, d1 = x0 - mu * a0, x1 - mu * a1
        nd = math.hypot(d0, d1)
        if nd <= w1:
            z0, z1, s, ds = a0, a1, math.hypot(a0, a1), 0.0
        else:
            # z = alpha + d c, d = beta - mu alpha, c = (1 - w1/|d|) / mu,
            # formed as alpha w1/|d| + beta c: no cancellation when |z| <<
            # |alpha|
            k = w1 / nd
            c = (1.0 - k) / mu
            z0, z1 = a0 * k + x0 * c, a1 * k + x1 * c
            s, ds = math.hypot(z0, z1), 0.0
            if s > 0.0:
                dc = -(k * ((d0 * a0 + d1 * a1) / nd) / nd + c) / mu
                ds = (z0 * (d0 * dc - a0 * c) + z1 * (d1 * dc - a1 * c)) / s
        if final:
            break
        if sphere:
            g_mu, dg = radius - s, -ds
        else:
            # F'(s) and F''(s)
            if core is None:
                f1, f2 = modulus * s + w0, modulus
            elif s - c3 <= 0:
                q = math.sqrt(rho2 + s * s)
                f1 = modulus * s + w0 + c1 * s / q
                f2 = modulus + c1 * rho2 / q ** 3
            else:
                _, p1, p2 = radial_core_at(core, s)
                f1, f2 = modulus * s + w0 + p1, modulus + p2
            g_mu, dg = mu * s - f1, s + (mu - f2) * ds
        if steps is None:  # bracketing
            first = first or (abs(g_mu), mu, g_mu, dg, z0, z1)
            if g_mu < 0.0:
                if mu > MU_MAX:
                    z0 = z1 = 0.0
                    break
                lo, mu = mu, 2.0 * mu
                continue
            hi, steps = mu, 0
            if first[1] == lo and first[0] < g_mu:
                _, mu, g_mu, dg, z0, z1 = first
            last_step = hi - lo
        if steps == NEWTON_MAX_ITER:
            tail = _trail(trail[len(trail) - steps:])  # this root's own
            raise NonConvergence(f"multiplier root stalled after {steps} "
                                 f"steps; |g| trail {tail}")
        steps += 1
        trail.append(abs(g_mu))
        if g_mu == 0.0 or hi - lo <= 4.0 * EPS * hi:
            break
        lo, hi = (mu, hi) if g_mu < 0.0 else (lo, mu)
        step = g_mu / dg if dg > 0.0 else math.inf
        if lo < mu - step < hi and abs(step) < 0.5 * last_step:
            final, new = abs(step) <= NEWTON_STEP_RTOL * mu, mu - step
        else:
            new = (math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo
                   else 0.5 * (lo + hi))
        last_step, mu = abs(new - mu), new
    if not sphere:
        return z0, z1
    if z0 == a0 and z1 == a1:
        return alpha
    nz = math.hypot(z0, z1)
    return (z0 * radius / nz, z1 * radius / nz)


def failing_row(Z, V, kinks, radius, curvature, scale):
    """The accuracy check of a batch of point results, the one coding of
    every caller (a point solve is its one-row case, prox_nodal and a
    trajectory check its batches): (i, res, bound), res the first_order_rows
    residual of each row (V, kinks, radius as there), bound
    max(RESIDUAL_RTOL scale, 64 eps (curvature (1 + |z|) + the kinks'
    share)) and i the first row over its bound (a nan too), else None."""
    res, floor = first_order_rows(Z, V, kinks, radius, curvature)
    bound = np.maximum(RESIDUAL_RTOL * scale, 64.0 * EPS * floor)
    ok = res <= bound
    return (None if ok.all() else int(np.argmin(ok))), res, bound


def residual_error(res, bound, trail) -> NonConvergence:
    """The NonConvergence of a point result whose first-order residual res
    is over its bound, with the Newton trail of its solve."""
    return NonConvergence(f"point solve left first-order residual {res:.3e} "
                          f"(bound {bound:.3e}); Newton trail {_trail(trail)}")


# ---------------------------------------------------------------------------
# vectorized nodal variant for finite-element z-fields


def prox_nodal(X, t, w_shift, anchors, w_zero, radius, start):
    """Rowwise prox for a field of nodal problems; X, anchors and start are
    (m, 5).

    w_shift / w_zero are per-node weights (already including quadrature
    weights) or one weight for all nodes (w_zero None: no zero kink; radius
    None: no ball).  Without the zero kink and the ball a row is a shrinkage
    about its anchor, else prox_nonsmooth's, its radial return started at
    the radius of its row of start (a field near the prox) where that is
    not 0, else at its anchor's.
    """
    X, anchors = np.asarray(X, dtype=float), np.asarray(anchors, dtype=float)
    k1 = t * np.asarray(w_shift, dtype=float)
    if w_zero is None and radius is None:
        U = X - anchors
        n = row_norms(U)[:, None]
        scale = np.maximum(1.0 - k1[..., None] / np.maximum(n, 1e-300), 0.0)
        return anchors + U * scale
    zero = np.zeros(len(X))  # adding it gives a single weight to every row
    k1 = zero + k1
    k0 = zero if w_zero is None else zero + t * np.asarray(w_zero, dtype=float)
    # _plane of every row; where x = anchor = 0 the plane coordinates are
    # zero and so is the prox
    A, nx = row_hypot(anchors), row_hypot(X)
    E1 = _unit_rows(np.where((A > 0.0)[:, None], anchors, X),
                    np.where(A > 0.0, A, nx))
    xi0 = np.einsum("ij,ij->i", X, E1)
    perp = X - xi0[:, None] * E1
    xi1 = row_hypot(perp)
    E2 = _unit_rows(perp, xi1)
    S = row_hypot(start)
    rows = zip(*(v.tolist() for v in (xi0, xi1, A, k0, k1,
                                      np.where(S > 0.0, S, A))))
    Y = []
    try:
        for x0, x1, a, c0, c1, s0 in rows:
            Y.append(_plane_step((x0, x1), (a, 0.0), 1.0, c0, c1, radius,
                                 None, s0, []))
    except NonConvergence as e:
        raise NonConvergence(f"nodal prox row {len(Y)}: {e}") from e
    Y = np.array(Y).reshape(-1, 2)
    # a row stuck at its anchor is the anchor itself
    stuck = (Y[:, 0] == A) & (Y[:, 1] == 0.0)
    Z = np.where(stuck[:, None], anchors, Y[:, :1] * E1 + Y[:, 1:] * E2)
    # the check of every row; the NonConvergence names the first that fails
    i, res, bound = failing_row(Z, X - Z, ((None, 0.0, k0), (anchors, A, k1)),
                                radius, 1.0, 1.0 + nx)
    if i is not None:
        raise NonConvergence(f"nodal prox row {i} left first-order residual "
                             f"{res[i]:.3e} (bound {bound[i]:.3e})")
    return Z


def _unit_rows(V, n):
    """Rows of V / n, n = |V| rowwise: zero rows stay, subnormal n rescaled."""
    U = V / np.where(n > 0.0, n, 1.0)[:, None]
    sub = (n > 0.0) & (n < TINY)
    if sub.any():
        U[sub] /= row_hypot(U[sub])[:, None]
    return U


def first_order_rows(Z, V, kinks, radius, curvature=1.0):
    """The first-order residual of each row of an (m, 5) field Z: the
    distance from 0 to the subdifferential at z, less the weight of each
    kink within roundoff of its center (<= 0 inside it).  V holds the rows
    of -g, g the smooth part's gradient; kinks the (centers or None for the
    origin, their row norms, per-row weights or None for no kink) of the
    norm terms; the ball's normal cone counts where |z| = radius (no ball
    when radius is None).  A kink off its center shares its weight times the
    rounding of its direction in the floor.  V ends, in place, as
    minus a subgradient of norm the residual's positive part.  Returns (the
    residual rows, their roundoff floor curvature (1 + |z|) + the kinks'
    share), the product not formed when curvature is 1."""
    nz = row_hypot(Z)
    floor = 1.0 + nz if curvature == 1.0 else curvature * (1.0 + nz)
    budget = 0.0
    for C, nc, k in kinks:
        if k is None:
            continue
        D = Z if C is None else Z - C
        nd = nz if C is None else row_hypot(D)
        off = nd > 64.0 * EPS * (1.0 + nz)
        c = k * off / np.where(off, nd, 1.0)
        V -= c[:, None] * D
        floor += c * (nz + nc)
        budget += k * ~off
    if radius is not None:
        on = nz >= radius * (1.0 - BALL_SLACK)
        push = np.maximum(0.0, np.einsum("ij,ij->i", V, Z)) * on
        V -= (push / np.where(on, nz * nz, 1.0))[:, None] * Z
    nv = row_hypot(V)
    res = nv - budget
    V *= (np.maximum(res, 0.0) / np.where(nv > 0.0, nv, 1.0))[:, None]
    return res, floor


def project_ball(z, radius):
    """Project a (5,) point, or each row of an (m, 5) field, onto the ball."""
    n = np.linalg.norm(z, axis=-1, keepdims=True)
    over = n > radius
    if not over.any():
        return z
    return np.where(over, z * (radius / np.maximum(n, 1e-300)), z)


# ---------------------------------------------------------------------------
# the field step problem and its solver


@dataclass
class StepProblem:
    """One incremental minimization on an (m, 5) field.

    smooth_grad(Z) returns the value and the gradient of the strongly
    convex differentiable part, and lipschitz is an estimate of the
    gradient's Lipschitz constant; the fallback step 1/lipschitz descends
    only if the estimate bounds the constant.  The nonsmooth structure is
    w_zero |z| + w_shift |z - anchor| plus an optional ball constraint of
    the given radius (active in the sharp case only); the norms are nodal
    and the weights per node (already including quadrature weights).
    """

    smooth_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]]
    lipschitz: float
    w_shift: Union[float, np.ndarray]
    anchor: np.ndarray
    w_zero: Union[float, np.ndarray, None] = None
    radius: Optional[float] = None

    def prox(self, x, t, start):
        return prox_nodal(x, t, self.w_shift, self.anchor, self.w_zero,
                          self.radius, start)


def _dot(a, b):
    return float((a * b).sum())


def solve_field(pb: StepProblem, X0, tol):
    """Minimize an (m, 5) field problem from X0 (projected onto the ball, if
    any; X0 is not written to) by safeguarded BB proximal gradient, in at
    most FIELD_MAX_ITER iterations; returns the last iterate and the start's
    residual.

    smooth_grad is called once on the start and once on each candidate; the
    accepted candidate's value and gradient are carried to the next
    iteration.  An iterate's residual is |z - p| L for the fallback step
    p = prox(z - grad/L); it reads 0 within its roundoff floor
    64 eps L (1 + |z|).  The solve stops at the first residual <= tol, a
    number or a function of the start's residual.  A BB trial step is kept
    only where the quadratic majorization of the smooth part holds, else
    the fallback step is taken, which descends when L bounds the gradient's
    Lipschitz constant.  Identical inputs give bit-identical iterates.
    """
    t0 = 1.0 / pb.lipschitz
    eps_floor = 64.0 * np.finfo(float).eps * pb.lipschitz
    z = np.asarray(X0, dtype=float)
    if pb.radius is not None:
        z = project_ball(z, pb.radius)
    f, g = pb.smooth_grad(z)
    z_prev = g_prev = None
    for it in range(FIELD_MAX_ITER):
        # z starts each row's radial return: near the solution it is the prox
        fallback = pb.prox(z - t0 * g, t0, z)
        # np.linalg.norm's own sums, without its dispatch
        d, zf = (z - fallback).ravel(), z.ravel(order="K")
        res = math.sqrt(d @ d) / t0
        if res <= eps_floor * (1.0 + math.sqrt(zf @ zf)):
            res = 0.0
        if it == 0:
            res0, tol = res, tol(res) if callable(tol) else tol
            if not tol > 0:
                raise ValueError("tolerance must be > 0")
        if res <= tol:
            return z, res0
        # BB trial step, backtracked until the quadratic majorization holds;
        # the step floor 1/L makes the final candidate the fallback step
        t = t0
        if z_prev is not None:
            s = z - z_prev
            y = g - g_prev
            sy = _dot(s, y)
            if sy > 0:
                t = min(max(_dot(s, s) / sy, t0), 1e8 * t0)
        while True:
            cand = fallback if t == t0 else pb.prox(z - t * g, t, z)
            dz = cand - z
            f_cand, g_cand = pb.smooth_grad(cand)
            if t <= t0 or f_cand <= f + _dot(g, dz) \
                    + _dot(dz, dz) / (2.0 * t) + 1e-14 * (1.0 + abs(f)):
                break
            t = max(t / 4.0, t0)
        z_prev, g_prev = z, g
        z, f, g = cand, f_cand, g_cand
    raise NonConvergence(f"prox-gradient solve stalled at residual {res:.3e} "
                         f"after {FIELD_MAX_ITER} iterations")
