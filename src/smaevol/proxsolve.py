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

* The anchor is optimal exactly when |grad F(anchor) - b| <= w_shift, the
  origin (for a kink w_zero) exactly when |b + w_shift e| <= w_zero with e
  the anchor's direction.
* Otherwise write the optimality condition F'(|z|) z/|z| - b + w_shift q
  = 0 (q a subgradient of |. - anchor|) as mu z - b + w_shift q = 0 with
  the radial multiplier mu = F'(|z|)/|z|.  For fixed mu its solution z(mu)
  is a shrinkage about the anchor, and g(mu) = mu |z(mu)| - F'(|z(mu)|)
  changes sign exactly once, at the minimizer's mu (a radial return).  An
  active ball adds its multiplier to mu the same way, and then mu solves
  |z(mu)| = radius.  Either root is bracketed and found by safeguarded
  Newton steps; on b's line (proportional loading) the same code runs
  with every second coordinate zero.
* Without the core the profile is quadratic and the step is one prox of
  the kinks and the ball, prox_nonsmooth.

Every scalar solve runs to roundoff and is capped at NEWTON_MAX_ITER, and
every result must pass a first-order residual check; a miss raises
NonConvergence with the residual trail.

A field step minimizes the same structure nodewise on an (m, 5) field with
per-node weights and a coupled strongly convex smooth part.  It is solved
by proximal gradient with a Barzilai-Borwein step, safeguarded by the 1/L
fallback step so the objective is non-increasing.  Its rowwise prox,
prox_nodal, is a shrinkage about each anchor without the zero kink and
the ball; otherwise every row runs the plane prox of prox_nonsmooth, its
change of coordinates and residual check vectorized over the rows.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .material import (MaterialParams, radial_core_d1, radial_core_d2,
                       radial_core_value)

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


class NonConvergence(Exception):
    """Raised when an iterative solve exhausts its iteration budget."""


def _norm(v) -> float:
    # scaled: no underflow for tiny vectors
    return math.hypot(*v)


def _trail(values) -> str:
    return " ".join(f"{v:.2e}" for v in values)


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
    c2 |z|^2 + core(|z|) - b.z.  solve_point uses grad only (in its
    residual check); smooth is the value grad is checked against, and the
    objective of the prox-gradient oracle in the tests.
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
            val += radial_core_value(self.core, r)
        return val

    def grad(self, z) -> np.ndarray:
        g = 2.0 * self.c2 * z - self.b
        r = _norm(z)
        if self.core is not None and r > 0:
            g = g + (radial_core_d1(self.core, r) / r) * z
        return g


def solve_point(pb: PointProblem) -> np.ndarray:
    """Exact minimizer of a point problem (see the module docstring)."""
    if pb.core is None:
        t = 1.0 / (2.0 * pb.c2)
        return prox_nonsmooth(pb.b * t, t, pb.w_shift, pb.anchor, pb.w_zero,
                              pb.radius)
    p = pb.core

    def slopes(s):
        # F'(s) and F''(s) for F(s) = c2 s^2 + core(s)
        return (2.0 * pb.c2 * s + radial_core_d1(p, s),
                2.0 * pb.c2 + radial_core_d2(p, s))

    e1, e2, beta, A = _plane(pb.b, pb.anchor)
    trail = []
    if e1 is None:
        z = np.zeros_like(pb.b)
    else:
        alpha = (A, 0.0)
        if math.hypot(beta[0] - slopes(A)[0], beta[1]) <= pb.w_shift:
            y = alpha
        else:
            y = _plane_root(slopes, 2.0 * pb.c2, beta, alpha, pb.w_shift,
                            trail)
        z = _embed(y, alpha, pb.anchor, e1, e2)
    _check(z, pb.grad(z), ((pb.anchor, pb.w_shift),), None,
           2.0 * pb.c2 + p.core_curvature, 1.0 + _norm(pb.b), trail)
    return z


def prox_nonsmooth(x, t, w_shift, anchor, w_zero=0.0, radius=None):
    """Exact prox of t * (w_zero |.| + w_shift |. - anchor| + ball indicator)."""
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    k0, k1 = t * w_zero, t * w_shift
    e1, e2, xi, A = _plane(x, anchor)
    trail = []
    if e1 is None:
        z = np.zeros_like(x)
    else:
        alpha = (A, 0.0)
        y = _plane_prox(xi, alpha, k0, k1, radius, trail)
        z = _embed(y, alpha, anchor, e1, e2)
    _check(z, z - x, ((np.zeros_like(z), k0), (anchor, k1)), radius, 1.0,
           1.0 + _norm(x), trail)
    return z


def _plane(b, anchor):
    """Orthonormal basis of span(b, anchor), the first vector on the anchor.

    Returns (e1, e2, beta, A): b = beta[0] e1 + beta[1] e2 with
    beta[1] >= 0 and anchor = A e1.  e2 is None when b lies on the
    anchor's line, e1 too when b = anchor = 0.
    """
    A = _norm(anchor)
    if A > 0.0:
        e1 = _unit(anchor, A)
    else:
        nb = _norm(b)
        if nb == 0.0:
            return None, None, (0.0, 0.0), 0.0
        e1 = _unit(b, nb)
    beta1 = float(b @ e1)
    perp = b - beta1 * e1
    beta2 = _norm(perp)
    e2 = _unit(perp, beta2) if beta2 > 0.0 else None
    return e1, e2, (beta1, beta2), A


def _unit(v, n):
    """v / n for n = |v| > 0, normalized again when n is subnormal."""
    u = v / n
    return u / _norm(u) if n < TINY else u


def _embed(y, alpha, anchor, e1, e2):
    """The 5-d point of plane coordinates y (the anchor itself at alpha)."""
    if y == alpha:
        return anchor.copy()
    z = y[0] * e1
    return z if e2 is None else z + y[1] * e2


def _shift_prox(xi, alpha, w, mu):
    """argmin of mu |z|^2 / 2 - xi.z + w |z - alpha| (plane coordinates),
    its norm s and ds/dmu."""
    d0, d1 = xi[0] - mu * alpha[0], xi[1] - mu * alpha[1]
    nd = math.hypot(d0, d1)
    if nd <= w:
        return alpha, math.hypot(*alpha), 0.0
    # z = alpha + d c with d = xi - mu alpha and c = (1 - w / |d|) / mu
    c = (1.0 - w / nd) / mu
    z = (alpha[0] + d0 * c, alpha[1] + d1 * c)
    s = math.hypot(*z)
    if s == 0.0:
        return z, s, 0.0
    dc = -((w / nd) * ((d0 * alpha[0] + d1 * alpha[1]) / nd) / nd + c) / mu
    dz0, dz1 = d0 * dc - alpha[0] * c, d1 * dc - alpha[1] * c
    return z, s, (z[0] * dz0 + z[1] * dz1) / s


def _multiplier_root(g, lo, guess, trail):
    """Point at the root of an increasing g above lo > 0, where g(lo) <= 0.

    g(mu) returns (value, derivative, point).  Doubling from guess > lo
    brackets the root.  Then Newton steps run from the bracket end where
    |g| is smaller until a step is below NEWTON_STEP_RTOL; a step that
    would leave the bracket or not halve the previous step is replaced by
    a bisection, geometric across a bracket wider than a factor 4.  None
    when g stays negative up to MU_MAX.
    """
    mu = guess
    g_mu, dg, z = g(mu)
    first = (abs(g_mu), mu, g_mu, dg, z)
    while g_mu < 0.0:
        if mu > MU_MAX:
            return None
        lo, mu = mu, 2.0 * mu
        g_mu, dg, z = g(mu)
    hi = mu
    if first[1] == lo and first[0] < g_mu:
        _, mu, g_mu, dg, z = first
    last_step = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        trail.append(abs(g_mu))
        if g_mu == 0.0 or hi - lo <= 4.0 * EPS * hi:
            return z
        if g_mu < 0.0:
            lo = mu
        else:
            hi = mu
        step = g_mu / dg if dg > 0.0 else math.inf
        if lo < mu - step < hi and abs(step) <= 0.5 * last_step:
            if abs(step) <= NEWTON_STEP_RTOL * mu:
                return g(mu - step)[2]
            new = mu - step
        else:
            new = (math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo
                   else 0.5 * (lo + hi))
        last_step, mu = abs(new - mu), new
        g_mu, dg, z = g(mu)
    raise NonConvergence(f"multiplier root stalled after {NEWTON_MAX_ITER} "
                         f"steps; |g| trail {_trail(trail)}")


def _plane_prox(xi, alpha, k0, k1, radius, trail):
    """prox_nonsmooth in plane coordinates."""
    y = None if radius is None else _sphere_prox(xi, alpha, k0, k1, radius,
                                                 trail)
    return _interior_prox(xi, alpha, k0, k1, trail) if y is None else y


def _sphere_prox(xi, alpha, k0, k1, r, trail):
    """The prox when the ball is active at it, else None (plane coordinates).

    On the sphere the optimality condition reads mu z - xi + k1 q = 0 with
    q in the subdifferential of |. - alpha| and mu = 1 + (k0 + lambda)/r,
    lambda >= 0 the ball multiplier; so z = z(mu) is a shrinkage about
    alpha, and |z(mu)| is continuous and nonincreasing in mu.  The ball is
    active exactly when |z(mu0)| >= r at mu0 = 1 + k0/r, and then mu solves
    |z(mu)| = r.
    """
    def g(mu):
        z, s, ds = _shift_prox(xi, alpha, k1, mu)
        return r - s, -ds, z

    mu0 = 1.0 + k0 / r
    if g(mu0)[0] > 0.0:
        return None
    # g >= 0 from mu = (|xi| + k1) / r on, so the root lies below there
    z = _multiplier_root(g, mu0, max((math.hypot(*xi) + k1) / r, mu0), trail)
    if z == alpha:
        return alpha
    nz = math.hypot(*z)
    return (z[0] * r / nz, z[1] * r / nz)


def _interior_prox(xi, alpha, k0, k1, trail):
    """The prox without the ball, in plane coordinates."""
    if math.hypot(xi[0] - alpha[0] - k0, xi[1]) <= k1:
        return alpha
    if math.hypot(xi[0] + k1, xi[1]) <= k0:
        return (0.0, 0.0)
    return _plane_root(lambda s: (s + k0, 1.0), 1.0, xi, alpha, k1, trail)


def _plane_root(slopes, modulus, beta, alpha, w, trail):
    """Minimizer of F(|x|) - beta.x + w |x - alpha| off its kinks (radial return).

    slopes(s) returns (F'(s), F''(s)), with F'' >= modulus > 0.  With
    mu = F'(|x|)/|x| the optimality condition reads mu x - beta + w q = 0,
    q in the subdifferential of |. - alpha|, so x = x(mu) is a shrinkage
    about alpha.  g(mu) = mu |x(mu)| - F'(|x(mu)|) vanishes exactly at the
    minimizer's mu (the minimizer is unique), is <= 0 at mu = modulus <=
    F'(s)/s and positive for large mu, so it changes sign once.
    """
    def g(mu):
        x, s, ds = _shift_prox(beta, alpha, w, mu)
        d1, d2 = slopes(s)
        return mu * s - d1, s + (mu - d2) * ds, x

    # the anchor's own multiplier F'(A)/A is the first guess, unless the
    # anchor is below beta's roundoff: at a kink of F it is then so large
    # that g' underflows there and Newton steps only about halve mu
    A = alpha[0]
    d1, d2 = slopes(A)
    guess = min(d1 / A, MU_MAX) if A > EPS * math.hypot(*beta) else d2
    x = _multiplier_root(g, modulus, guess if guess > modulus else 2.0 * modulus,
                         trail)
    # a root beyond MU_MAX puts the minimizer within F'(0+)/MU_MAX of the
    # origin, where a kink of F sits
    return (0.0, 0.0) if x is None else x


def _check(z, g, kinks, radius, curvature, scale, trail):
    """Raise NonConvergence unless z is first-order optimal to roundoff.

    g is the gradient of the smooth part at z, kinks the (center, weight)
    pairs of the norm terms; the residual is the distance from 0 to the
    subdifferential of the whole objective (with the normal cone of the
    ball when |z| = radius), where a kink within roundoff of its center
    counts as sitting on it.  The residual's roundoff floor is the
    curvature bound times |z|, plus, per kink off its center, the weight
    times the relative rounding of the direction (z - center)/|z - center|.
    """
    v = -g
    budget = 0.0
    nz = _norm(z)
    floor = curvature * (1.0 + nz)
    for center, weight in kinks:
        if weight == 0.0:
            continue
        d = z - center
        nd = _norm(d)
        if nd > 64.0 * EPS * (1.0 + nz):
            v = v - (weight / nd) * d
            floor += weight * (nz + _norm(center)) / nd
        else:
            budget += weight
    if radius is not None and nz >= radius * (1.0 - 1e-12):
        v = v - (max(0.0, float(v @ z)) / (nz * nz)) * z
    res = _norm(v) - budget
    bound = max(RESIDUAL_RTOL * scale, 64.0 * EPS * floor)
    if not res <= bound:  # also catches a nan
        raise NonConvergence(f"point solve left first-order residual {res:.3e} "
                             f"(bound {bound:.3e}); Newton trail {_trail(trail)}")


# ---------------------------------------------------------------------------
# vectorized nodal variant for finite-element z-fields


def prox_nodal(X, t, w_shift, anchors, w_zero=None, radius=None):
    """Rowwise prox for a field of nodal problems; X and anchors are (m, 5).

    w_shift / w_zero are per-node weights (already including quadrature
    weights) or one weight for all nodes.  Without the zero kink and the
    ball a row is a shrinkage about its anchor, else prox_nonsmooth's.
    """
    X, anchors = np.asarray(X, dtype=float), np.asarray(anchors, dtype=float)
    k1 = t * np.asarray(w_shift, dtype=float)
    if w_zero is None and radius is None:
        U = X - anchors
        n = np.linalg.norm(U, axis=1, keepdims=True)
        scale = np.maximum(1.0 - k1[..., None] / np.maximum(n, 1e-300), 0.0)
        return anchors + U * scale
    zero = np.zeros(len(X))  # adding it gives a single weight to every row
    k1 = zero + k1
    k0 = zero if w_zero is None else zero + t * np.asarray(w_zero, dtype=float)
    # _plane of every row; where x = anchor = 0 the plane coordinates are
    # zero and so is the prox
    A, nx = np.hypot.reduce(anchors, axis=1), np.hypot.reduce(X, axis=1)
    E1 = _unit_rows(np.where((A > 0.0)[:, None], anchors, X),
                    np.where(A > 0.0, A, nx))
    xi0 = np.einsum("ij,ij->i", X, E1)
    perp = X - xi0[:, None] * E1
    xi1 = np.hypot.reduce(perp, axis=1)
    E2 = _unit_rows(perp, xi1)
    rows = zip(*(v.tolist() for v in (xi0, xi1, A, k0, k1)))
    Y = np.array([_plane_prox((x0, x1), (a, 0.0), c0, c1, radius, [])
                  for x0, x1, a, c0, c1 in rows]).reshape(-1, 2)
    # a row stuck at its anchor is the anchor itself
    stuck = (Y[:, 0] == A) & (Y[:, 1] == 0.0)
    Z = np.where(stuck[:, None], anchors, Y[:, :1] * E1 + Y[:, 1:] * E2)
    _check_rows(Z, X, nx, anchors, A, k0, k1, radius)
    return Z


def _unit_rows(V, n):
    """Rows of V / n, n = |V| rowwise: zero rows stay, subnormal n rescaled."""
    U = V / np.where(n > 0.0, n, 1.0)[:, None]
    sub = (n > 0.0) & (n < TINY)
    if sub.any():
        U[sub] /= np.hypot.reduce(U[sub], axis=1)[:, None]
    return U


def _check_rows(Z, X, nx, anchors, A, k0, k1, radius):
    """_check of every row of a nodal prox, nx and A the row norms of X and
    the anchors; the NonConvergence names the first row that fails."""
    V = X - Z
    nz = np.hypot.reduce(Z, axis=1)
    floor, budget = 1.0 + nz, 0.0
    Za = Z - anchors
    for D, nd, nc, k in ((Z, nz, 0.0, k0),
                         (Za, np.hypot.reduce(Za, axis=1), A, k1)):
        off = nd > 64.0 * EPS * (1.0 + nz)
        c = k * off / np.where(off, nd, 1.0)
        V -= c[:, None] * D
        floor += c * (nz + nc)
        budget += k * ~off
    if radius is not None:
        on = nz >= radius * (1.0 - 1e-12)
        push = np.maximum(0.0, np.einsum("ij,ij->i", V, Z)) * on
        V -= (push / np.where(on, nz * nz, 1.0))[:, None] * Z
    res = np.hypot.reduce(V, axis=1) - budget
    bound = np.maximum(RESIDUAL_RTOL * (1.0 + nx), 64.0 * EPS * floor)
    if not np.all(res <= bound):  # also catches a nan
        i = int(np.argmin(res <= bound))
        raise NonConvergence(f"nodal prox row {i} left first-order residual "
                             f"{res[i]:.3e} (bound {bound[i]:.3e})")


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

    smooth/grad evaluate the strongly convex differentiable part and
    lipschitz bounds its gradient's Lipschitz constant.  The nonsmooth
    structure is w_zero |z| + w_shift |z - anchor| plus an optional ball
    constraint of the given radius (active in the sharp case only); the
    norms are nodal and the weights per node (already including
    quadrature weights).
    """

    smooth: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    w_shift: Union[float, np.ndarray]
    anchor: np.ndarray
    w_zero: Union[float, np.ndarray, None] = None
    radius: Optional[float] = None

    def nonsmooth(self, z) -> float:
        v = float(np.sum(self.w_shift * np.linalg.norm(z - self.anchor, axis=-1)))
        if self.w_zero is not None:
            v += float(np.sum(self.w_zero * np.linalg.norm(z, axis=-1)))
        return v

    def prox(self, x, t):
        return prox_nodal(x, t, self.w_shift, self.anchor, self.w_zero,
                          self.radius)

    def residual(self, z) -> float:
        t0 = 1.0 / self.lipschitz
        step = self.prox(z - t0 * self.grad(z), t0)
        return float(np.linalg.norm(z - step) / t0)


@dataclass
class SolveInfo:
    iterations: int = 0
    residual: float = float("nan")
    objective_history: list = field(default_factory=list)


def solve_field(pb: StepProblem, X0, tol, max_iter=20000,
                info: Optional[SolveInfo] = None) -> np.ndarray:
    """Minimize an (m, 5) field problem from X0 to residual <= tol."""
    return _prox_gradient(pb, X0, tol, max_iter, info)


def _dot(a, b):
    return float((a * b).sum())


def _prox_gradient(pb, z0, tol, max_iter, info):
    """Safeguarded BB proximal gradient to first-order residual <= tol.

    Deterministic: identical inputs produce bit-identical iterates.  The
    BB trial step is accepted only if it does not increase the objective;
    otherwise the guaranteed-descent 1/L step is taken.  The tolerance is
    floored at the roundoff resolution of the residual measure, which
    scales with the Lipschitz bound (the 1/L trial step divides machine
    noise by 1/L).  The objective of every iterate is recorded only into
    info.
    """
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    t0 = 1.0 / pb.lipschitz
    eps_floor = 64.0 * np.finfo(float).eps * pb.lipschitz
    z = np.asarray(z0, dtype=float).copy()
    if pb.radius is not None:
        z = project_ball(z, pb.radius)
    f_smooth = pb.smooth(z)
    if info is not None:
        info.objective_history.append(f_smooth + pb.nonsmooth(z))
    z_prev = None
    g_prev = None
    for it in range(max_iter):
        g = pb.grad(z)
        fallback = pb.prox(z - t0 * g, t0)
        res = float(np.linalg.norm(z - fallback) / t0)
        if info is not None:
            info.iterations = it
            info.residual = res
        if res <= max(tol, eps_floor * (1.0 + np.linalg.norm(z))):
            return z
        # BB trial step, backtracked until the quadratic majorization holds;
        # the step floor 1/L makes the final candidate a guaranteed-descent
        # prox-gradient step, so the objective never increases
        t = t0
        if z_prev is not None:
            s = z - z_prev
            y = g - g_prev
            sy = _dot(s, y)
            if sy > 0:
                t = min(max(_dot(s, s) / sy, t0), 1e8 * t0)
        while True:
            cand = fallback if t == t0 else pb.prox(z - t * g, t)
            dz = cand - z
            fs_cand = pb.smooth(cand)
            if t <= t0:
                break
            if fs_cand <= f_smooth + _dot(g, dz) \
                    + _dot(dz, dz) / (2.0 * t) \
                    + 1e-14 * (1.0 + abs(f_smooth)):
                break
            t = max(t / 4.0, t0)
        z_prev, g_prev = z, g
        z = cand
        f_smooth = fs_cand
        if info is not None:
            info.objective_history.append(fs_cand + pb.nonsmooth(cand))
    raise NonConvergence(f"prox-gradient solve stalled at residual {res:.3e} "
                         f"after {max_iter} iterations")
