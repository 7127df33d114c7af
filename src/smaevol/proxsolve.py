"""Proximal-gradient kernel for the incremental minimization step.

Each incremental problem reduces to minimizing, on the 5-dimensional
deviatoric space (a (5,) point) or nodewise on a field of such spaces (an
(m, 5) field with per-node weights),

    smooth(z) + w_zero |z| + w_shift |z - anchor| + indicator(|z| <= radius)

with a strongly convex smooth part.  One StepProblem type and one loop
serve both shapes; only the prox evaluator is chosen by shape, because on
a single row the scalar prox_nonsmooth is cheaper than the rowwise
prox_nodal.  The prox of the nonsmooth part is closed-form whenever the
kinks share a center (pure shrinkage, or radial shrink-then-project about
the origin); the remaining case, a ball plus a shifted kink, is handled
by the Dykstra-like proximal splitting iterated to high accuracy so that
every outer iteration is effectively exact.

The loop is proximal gradient with a Barzilai-Borwein step, safeguarded
by the 1/L fallback step so the objective is non-increasing.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np


class NonConvergence(Exception):
    """Raised when an iterative solve exhausts its iteration budget."""


def _shrink(x, k, anchor):
    u = x - anchor
    n = np.linalg.norm(u)
    if n <= k:
        return anchor.copy()
    return anchor + u * (1.0 - k / n)


def _radial(x, k, radius):
    n = np.linalg.norm(x)
    m = max(n - k, 0.0)
    if radius is not None:
        m = min(m, radius)
    if n == 0.0:
        return np.zeros_like(x)
    return x * (m / n)


def prox_nonsmooth(x, t, w_shift, anchor, w_zero=0.0, radius=None,
                   dyk_tol=1e-12, dyk_max=500):
    """Prox of t * (w_zero |.| + w_shift |. - anchor| + ball indicator).

    Closed form except when a shifted kink meets an origin-centered term,
    where Dykstra's splitting converges to the exact prox of the sum.
    """
    x = np.asarray(x, dtype=float)
    k_shift = t * w_shift
    k_zero = t * w_zero
    if k_zero == 0.0 and radius is None:
        return _shrink(x, k_shift, anchor)
    if np.linalg.norm(anchor) == 0.0:
        return _radial(x, k_shift + k_zero, radius)
    y = _shrink(x, k_shift, anchor)
    if k_zero == 0.0 and radius is not None and np.linalg.norm(y) <= radius:
        return y
    # Dykstra between f = shifted kink and g = radial kink + ball
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    w = x.copy()
    for _ in range(dyk_max):
        y = _shrink(w + p, k_shift, anchor)
        p = w + p - y
        w_new = _radial(y + q, k_zero, radius)
        q = y + q - w_new
        if np.linalg.norm(w_new - w) <= dyk_tol and np.linalg.norm(w_new - y) <= dyk_tol:
            return w_new
        w = w_new
    return w


# ---------------------------------------------------------------------------
# vectorized nodal variant for finite-element z-fields


def prox_nodal(X, t, w_shift, anchors, w_zero=None, radius=None,
               dyk_tol=1e-12, dyk_max=500):
    """Rowwise prox for a field of nodal problems; X and anchors are (m, 5).

    w_shift / w_zero are per-node weights (already including quadrature
    weights).  All rows iterate jointly in the Dykstra branch.
    """
    X = np.asarray(X, dtype=float)
    k1 = (t * np.asarray(w_shift, dtype=float))[:, None]
    if w_zero is None and radius is None:
        U = X - anchors
        n = np.linalg.norm(U, axis=1, keepdims=True)
        scale = np.maximum(1.0 - k1 / np.maximum(n, 1e-300), 0.0)
        return anchors + U * scale

    def shrink(V, k, centers):
        U = V - centers
        n = np.linalg.norm(U, axis=1, keepdims=True)
        return centers + U * np.maximum(1.0 - k / np.maximum(n, 1e-300), 0.0)

    def radial(V, k):
        n = np.linalg.norm(V, axis=1, keepdims=True)
        m = np.maximum(n - k, 0.0)
        if radius is not None:
            m = np.minimum(m, radius)
        return V * (m / np.maximum(n, 1e-300))

    k0 = (t * np.asarray(w_zero, dtype=float))[:, None] if w_zero is not None else 0.0
    P = np.zeros_like(X)
    Q = np.zeros_like(X)
    W = X.copy()
    for _ in range(dyk_max):
        Y = shrink(W + P, k1, anchors)
        P = W + P - Y
        W_new = radial(Y + Q, k0)
        Q = Y + Q - W_new
        drift = max(np.abs(W_new - W).max(), np.abs(W_new - Y).max())
        if drift <= dyk_tol:
            return W_new
        W = W_new
    return W


def project_ball(z, radius):
    """Project a (5,) point, or each row of an (m, 5) field, onto the ball."""
    n = np.linalg.norm(z, axis=-1, keepdims=True)
    over = n > radius
    if not over.any():
        return z
    return np.where(over, z * (radius / np.maximum(n, 1e-300)), z)


# ---------------------------------------------------------------------------
# the step problem and its solver


@dataclass
class StepProblem:
    """One incremental minimization on a (5,) point or an (m, 5) field.

    smooth/grad evaluate the strongly convex differentiable part and
    lipschitz bounds its gradient's Lipschitz constant.  The nonsmooth
    structure is w_zero |z| + w_shift |z - anchor| plus an optional ball
    constraint of the given radius (active in the sharp case only); on a
    field the norms are nodal and the weights per node (already including
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
        if x.ndim == 1:
            w_zero = 0.0 if self.w_zero is None else self.w_zero
            return prox_nonsmooth(x, t, self.w_shift, self.anchor, w_zero,
                                  self.radius)
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


def solve_point(pb: StepProblem, tol, max_iter=20000,
                info: Optional[SolveInfo] = None) -> np.ndarray:
    """Minimize a (5,) point problem from its anchor to residual <= tol."""
    return _prox_gradient(pb, pb.anchor, tol, max_iter, info)


def solve_field(pb: StepProblem, X0, tol, max_iter=20000,
                info: Optional[SolveInfo] = None) -> np.ndarray:
    """Minimize an (m, 5) field problem from X0 to residual <= tol."""
    return _prox_gradient(pb, X0, tol, max_iter, info)


def _dot(a, b):
    # BLAS dot on a point, elementwise sum on a field: the two round
    # differently in the last bit, and using either one for both shapes
    # moves the last digits of one side's scenario CSVs
    return float(a @ b) if a.ndim == 1 else float((a * b).sum())


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
