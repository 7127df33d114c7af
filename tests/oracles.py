"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the solver code paths they are used to check:
the incremental step is minimized by exhaustive evaluation on a grid in
the 2-plane spanned by the driving stress deviator and the anchor, which
contains the minimizer by rotational symmetry of all radial terms.  The
dual energy norms of load functionals come from a sparse LU of the whole
constrained (u, z) energy matrix.  The load data of one time are assembled
from that time's amplitudes with Kronecker-expanded mass matrices, as the
solver did before it summed the load program's channels.  The exact point kernel is checked
against the iterative solvers it replaced: the Barzilai-Borwein
prox-gradient loop on a point, and the scalar Dykstra splitting for the
prox of two kinks and the ball.  Its fused plane step is checked bit for
bit against the composition it replaced: the sphere, the anchor and origin
tests and the radial return, each root evaluating g(mu) through a closure
around the plane shrinkage and F' through a closure around the core; the
point kernel, which forms its plane on floats, against the numpy plane,
step and embedding it replaced.  The smooth radial core,
its derivatives and its constraint penalty are checked bit for bit against
their whole-array nested ``np.where`` evaluation, which computes every
penalty piece on every entry; the penalty, now evaluated piece by piece on
each piece's own entries, is also checked against the nested ``np.where``
over every piece that it replaced.  The element kernel of the assembly is
checked bit for bit against the two four-operand einsums it replaced,
scattered with every entry summed in element order, the field dump byte
for byte against the per-line formatting loop it replaced, and the step's
one-pass value and gradient of the z-problem against the closure that
called the whole-array core's value and derivative one after the other.
The stability residual of a point state, now the one-row point check of
the step anchored at the state, is checked against the hand-written
sharp/smooth closed form it replaced, and the row-wise first-order
residual of every point check against the scalar one it replaced.  The
stability probes' offsets, now normalized and scaled as arrays after one
pass of random draws, are checked bit for bit against the per-probe ball
draw they replaced.  The
single-step continuous-dependence bound of the field step is written out
from its derivation, with the solver's own P^-1 and lam.  The point driver,
which now evaluates the stress program and the energy ledger once for the
whole grid, is checked against the per-step loop it replaced, its stress
program against the per-time evaluation, and the one-pass node mapping of a
time grid against the argmin per time it replaced.  The tensor constructors
and the path reparametrization at the end, a point problem's smooth part and
its gradient, and the field step in the physical variables are used by
tests only.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from smaevol.fem import _strain_displacement
from smaevol.material import (_PIECES, BALL_SLACK, MaterialParams,
                              radial_core_at, stored_energy_density,
                              transformation_energy_grad)
from smaevol.proxsolve import (EPS, MU_MAX, NEWTON_STEP_RTOL, NonConvergence,
                               project_ball)
from smaevol.constitutive import (PointTrajectory, StressPath, TimeGrid,
                                  checked_initial_state, incremental_step)
from smaevol.tensors import DEV_BASIS, SQ2, dev_split, dev_to_sym, norm


def plane_basis(b, anchor):
    """Orthonormal basis of span{b, anchor} padded to two directions."""
    vecs = []
    for v in (np.asarray(b, float), np.asarray(anchor, float)):
        w = v.copy()
        for u in vecs:
            w = w - (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            vecs.append(w / n)
    k = 0
    while len(vecs) < 2:
        w = np.zeros(5)
        w[k] = 1.0
        for u in vecs:
            w = w - (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            vecs.append(w / n)
        k += 1
    return vecs[0], vecs[1]


def path_dissipation(R, samples):
    """Total dissipation R sum |z_k - z_{k-1}| along ordered deviators.

    For the piecewise-constant interpolants produced by the solvers this
    equals the total dissipation on the whole interval.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or len(samples) == 0:
        raise ValueError("need a non-empty ordered list of deviators")
    steps = np.diff(samples, axis=0)
    return R * float(np.linalg.norm(steps, axis=1).sum())


def planar_step_oracle(p, sigma, z_prev, n=400, extent=None):
    """Grid minimizer of the reduced incremental objective in the 2-plane.

    Returns (z_star_5d, grid_step).  The reduced objective is
    F(z) - sigma_dev : z + R |z - z_prev| with the strain eliminated.
    The n x n grid is polar in the plane so the transformation-ball
    boundary (where sharp-model minimizers often sit) is itself a grid
    line; the reported step is the larger of the radial spacing and the
    arc spacing at the minimizer.
    """
    b = dev_split(sigma)[0]
    anchor = np.asarray(z_prev, float)
    u1, u2 = plane_basis(b, anchor)
    if extent is None:
        extent = p.c3 + 2.0 * p.delta + 0.05
    rs = np.linspace(0.0, extent, n)
    if p.rho == 0:
        rs[np.argmin(np.abs(rs - p.c3))] = p.c3
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    R, TH = np.meshgrid(rs, thetas, indexing="ij")
    X = R * np.cos(TH)
    Y = R * np.sin(TH)
    if p.rho > 0:
        F = radial_core_value(p, R) + p.c2 * R * R
    else:
        F = np.where(R <= p.c3, p.c1 * R + p.c2 * R * R, np.inf)
    lin = (b @ u1) * X + (b @ u2) * Y
    ax, ay = anchor @ u1, anchor @ u2
    diss = p.R * np.sqrt((X - ax) ** 2 + (Y - ay) ** 2)
    obj = F - lin + diss
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    z_star = X[i, j] * u1 + Y[i, j] * u2
    step = max(rs[1] - rs[0], rs[i] * (thetas[1] - thetas[0]))
    return z_star, step


def box_mesh_loops(n):
    """Tets and boundary triangles of the box mesh, built one tet at a time.

    Cells run with i fastest, each cut into six tets by the axis
    permutations; a face is on the boundary when exactly one tet has it,
    and boundary faces are listed in first-appearance order with sorted
    node triples.  Planes are recognized on the integer lattice, so the
    result does not depend on the box extents.
    """
    nx, ny, nz = n
    nid = lambda i, j, k: i + (nx + 1) * (j + (ny + 1) * k)
    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for perm in itertools.permutations((0, 1, 2)):
                    cur = [i, j, k]
                    idx = [nid(*cur)]
                    for axis in perm:
                        cur[axis] += 1
                        idx.append(nid(*cur))
                    tets.append(idx)
    tets = np.array(tets, dtype=int)

    faces = {}
    for tet in tets:
        for f in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            key = tuple(sorted(int(v) for v in tet[list(f)]))
            faces[key] = faces.get(key, 0) + 1
    boundary = {pl: [] for pl in ("x0", "x1", "y0", "y1", "z0", "z1")}
    for key, count in faces.items():
        if count != 1:
            continue
        ijk = [(v % (nx + 1), v // (nx + 1) % (ny + 1), v // ((nx + 1) * (ny + 1)))
               for v in key]
        for a, pl0, pl1 in ((0, "x0", "x1"), (1, "y0", "y1"), (2, "z0", "z1")):
            if all(p[a] == 0 for p in ijk):
                boundary[pl0].append(list(key))
                break
            if all(p[a] == n[a] for p in ijk):
                boundary[pl1].append(list(key))
                break
        else:
            raise RuntimeError("boundary face not on any box plane")
    return tets, {pl: np.array(tris, dtype=int).reshape(-1, 3)
                  for pl, tris in boundary.items()}


def solve_bvp_step(solver, u_dir, load_u, anchor):
    """Solve one step of the incremental problem in the physical variables:
    u_dir is the full lifted Dirichlet vector; returns (u, z)."""
    v, z, _ = solver.solve_step(*solver.lifted_load(u_dir, load_u), anchor)
    return v + u_dir, z


def joint_lu_dual_norms(solver, L_list):
    """Dual norms of stacked (u, z) load functionals in the constrained
    energy norm, by a sparse LU of the joint energy matrix."""
    H = solver.forms.matrix().tocsc()
    free = np.concatenate([solver.space.u_free,
                           np.ones(solver.space.n_z, dtype=bool)])
    lu = spla.splu(H[free][:, free])
    out = []
    for L in L_list:
        Lc = L[free]
        out.append(math.sqrt(max(float(Lc @ lu.solve(Lc)), 0.0)))
    return np.array(out)


def stability_bound_oracle(solver, L_u, L_z, v, z):
    """The certified stability bound of one state, node by node in floats:
    the gradient 2 H y - L of the joint energy matrix H on the free dofs,
    each node's z-part with its core or kink term, the normal cone and the
    shrinkage written out, and |s|^2 in a dense P^-1, P = blockdiag(K_ff /
    2, S (x) I5) in dof order."""
    p, space = solver.params, solver.space
    free = space.u_free
    grad = 2.0 * (solver.forms.matrix() @ np.concatenate([v, z]))
    g_v = (grad[:space.n_u] - L_u)[free]
    g_z = (grad[space.n_u:] - L_z).reshape(-1, 5)
    s_z = np.zeros_like(g_z)
    for k, (g, zk, wk) in enumerate(zip(g_z, z.reshape(-1, 5), space.lumped)):
        r, kink = norm(zk), p.R * wk
        if p.rho > 0:
            g = g + (wk * radial_core_at(p, r)[1] / r) * zk if r > 0 else g
        elif r > p.c3 * (1.0 + 1e-12):
            return math.inf
        elif r == 0.0:
            kink += p.c1 * wk
        else:
            e = zk / r
            g = g + p.c1 * wk * e
            if r >= p.c3 * (1.0 - 1e-12) and g @ e < 0.0:
                g = g - (g @ e) * e
        ng = norm(g)
        s_z[k] = g * max(0.0, 1.0 - kink / ng) if ng > 0.0 else 0.0
    K_ff = solver.forms.K.toarray()[free][:, free]
    S = solver.forms.z_block().toarray()
    q = (2.0 * g_v @ np.linalg.solve(K_ff, g_v)
         + float((s_z * np.linalg.solve(S, s_z)).sum()))
    G = p.elastic.G
    return q / (4.0 * (1.0 - math.sqrt(G / (G + p.c2))))


def p_norm_sq(solver, dv, dz):
    """|(dv, dz)|^2_P = dv.K dv / 2 + dz.S dz, P = blockdiag(K_ff / 2,
    S (x) I5), for a dv that vanishes on the Dirichlet dofs."""
    dZ = dz.reshape(-1, 5)
    return (0.5 * float(dv @ (solver.forms.K @ dv))
            + float(np.sum(dZ * (solver.forms.z_block() @ dZ))))


def dependence_bound_oracle(solver, dL_u, dL_z, d_anchor):
    """The single-step continuous-dependence bound on p_norm_sq of the
    difference of two step solutions whose loads differ by (dL_u, dL_z)
    and anchors by d_anchor: |dL|^2_{P^-1} / (4 lam^2) + (2 / lam) R
    sum_r w_r |d_anchor_r|.  The step is 2 lam-strongly convex in the
    P-norm and each row of a dissipation subgradient is at most R w_r long,
    so 2 lam |dy|^2_P <= |dL|_{P^-1} |dy|_P + 2 R sum_r w_r |d_anchor_r|;
    Young's inequality gives the bound."""
    dL = np.concatenate([dL_u[solver.dofs], dL_z])
    load = float(dL @ solver.solve_P(dL)) / (4.0 * solver.lam ** 2)
    shift = solver.params.R * float(
        solver.w @ np.linalg.norm(d_anchor.reshape(-1, 5), axis=1))
    return load + 2.0 * shift / solver.lam


def colamd_solve_v(solver, b_u):
    """solve_v by scipy's default splu (COLAMD column order, partial
    pivoting) of K[u_free][:, u_free] in dof order; returns the solution
    and the factors."""
    free = solver.space.u_free
    lu = spla.splu(solver.forms.K.tocsc()[free][:, free])
    v = np.zeros(solver.space.n_u)
    v[free] = lu.solve(b_u[free])
    return v, lu


def load_at_oracle(space, program, t):
    """(u_dir, ell) of the load program at time t, assembled per time: each
    channel's amplitude at t times its nodal shape, integrated with the
    Kronecker-expanded mass M (x) I3 or surface mass surf (x) I3."""
    if t < program.times[0] - 1e-12 or t > program.times[-1] + 1e-12:
        raise ValueError("time outside the program interval")

    def amp(amps):
        return 0.0 if amps is None else float(np.interp(t, program.times, amps))

    def nodal(shape):
        if callable(shape):
            return np.array([shape(x) for x in space.mesh.nodes], dtype=float)
        return np.tile(np.asarray(shape, dtype=float), (space.n_nodes, 1))

    u_dir, ell = np.zeros(space.n_u), np.zeros(space.n_u)
    if program.dirichlet is not None:
        u_dir = amp(program.dirichlet_amps) * nodal(program.dirichlet).ravel()
    if program.body is not None:
        M3 = sp.kron(space.M, sp.eye(3), format="csr")
        ell += M3 @ (amp(program.body_amps) * nodal(program.body)).ravel()
    for pl, shape in program.traction.items():
        if pl in space.dirichlet_planes:
            raise ValueError(f"traction prescribed on the Dirichlet plane {pl!r}")
        S3 = sp.kron(space.surf[pl], sp.eye(3), format="csr")
        ell += S3 @ (amp(program.traction_amps) * nodal(shape)).ravel()
    return u_dir, ell


# ---------------------------------------------------------------------------
# the whole-array penalty and core the masked evaluators replaced


def penalty(p: MaterialParams, r):
    if isinstance(r, float) and r <= p.c3:
        return 0.0
    d = p.delta
    s = np.asarray(r, dtype=float) - p.c3
    out = np.where(
        s <= 0, 0.0,
        np.where(
            s <= d, s ** 3 / d ** 2,
            np.where(s <= 2 * d,
                     6.0 * s ** 2 / d - s ** 3 / d ** 2 - 6.0 * s + 2.0 * d,
                     6.0 * s - 6.0 * d)))
    return out if out.ndim else float(out)


def penalty_d1(p: MaterialParams, r):
    if isinstance(r, float) and r <= p.c3:
        return 0.0
    d = p.delta
    s = np.asarray(r, dtype=float) - p.c3
    out = np.where(
        s <= 0, 0.0,
        np.where(
            s <= d, 3.0 * s ** 2 / d ** 2,
            np.where(s <= 2 * d, 12.0 * s / d - 3.0 * s ** 2 / d ** 2 - 6.0, 6.0)))
    return out if out.ndim else float(out)


def penalty_d2(p: MaterialParams, r):
    if isinstance(r, float) and r <= p.c3:
        return 0.0
    d = p.delta
    s = np.asarray(r, dtype=float) - p.c3
    out = np.where(
        s <= 0, 0.0,
        np.where(s <= d, 6.0 * s / d ** 2,
                 np.where(s <= 2 * d, (12.0 * d - 6.0 * s) / d ** 2, 0.0)))
    return out if out.ndim else float(out)


def radial_core_value(p: MaterialParams, r):
    """The smooth core c1 (sqrt(rho^2 + r^2) - rho) + phi(r)/rho."""
    x = np.asarray(r, dtype=float)
    return p.c1 * (np.sqrt(p.rho ** 2 + x ** 2) - p.rho) + penalty(p, x) / p.rho


def radial_core_d1(p: MaterialParams, r):
    x = np.asarray(r, dtype=float)
    return p.c1 * x / np.sqrt(p.rho ** 2 + x ** 2) + penalty_d1(p, x) / p.rho


def radial_core_d2(p: MaterialParams, r):
    x = np.asarray(r, dtype=float)
    q = np.sqrt(p.rho ** 2 + x ** 2)
    return p.c1 * p.rho ** 2 / q ** 3 + penalty_d2(p, x) / p.rho


# ---------------------------------------------------------------------------
# the iterative point solvers the exact kernel replaced


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


def dykstra_prox(x, t, w_shift, anchor, w_zero=0.0, radius=None,
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


def smooth(pb, z) -> float:
    """The differentiable part c2 |z|^2 + core(|z|) - b.z of a
    smaevol.proxsolve.PointProblem at one point."""
    r = math.hypot(*z.tolist())     # scaled: no underflow for tiny vectors
    val = pb.c2 * r * r - float(pb.b @ z)
    if pb.core is not None:
        val += radial_core_at(pb.core, r)[0]
    return val


def grad(pb, z) -> np.ndarray:
    """The gradient of smooth(pb, .) at z."""
    g = 2.0 * pb.c2 * z - pb.b
    r = math.hypot(*z.tolist())
    if pb.core is not None and r > 0:
        g = g + (radial_core_at(pb.core, r)[1] / r) * z
    return g


@dataclass
class BBPointProblem:
    """A point problem as the prox-gradient loop sees it: smooth part,
    its gradient and Lipschitz bound, and the kinks and ball whose prox
    is dykstra_prox."""

    smooth: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    w_shift: float
    anchor: np.ndarray
    w_zero: Optional[float] = None
    radius: Optional[float] = None

    @classmethod
    def of(cls, pb):
        """The oracle view of a smaevol.proxsolve.PointProblem."""
        lipschitz = 2.0 * pb.c2
        if pb.core is not None:
            lipschitz += pb.core.core_curvature
        return cls(lambda z: smooth(pb, z), lambda z: grad(pb, z), lipschitz,
                   pb.w_shift, pb.anchor, pb.w_zero or None, pb.radius)

    def nonsmooth(self, z) -> float:
        v = float(np.sum(self.w_shift * np.linalg.norm(z - self.anchor, axis=-1)))
        if self.w_zero is not None:
            v += float(np.sum(self.w_zero * np.linalg.norm(z, axis=-1)))
        return v

    def prox(self, x, t):
        w_zero = 0.0 if self.w_zero is None else self.w_zero
        return dykstra_prox(x, t, self.w_shift, self.anchor, w_zero,
                            self.radius)

    def residual(self, z) -> float:
        t0 = 1.0 / self.lipschitz
        step = self.prox(z - t0 * self.grad(z), t0)
        return float(np.linalg.norm(z - step) / t0)


@dataclass
class BBInfo:
    """What bb_solve_point records: the last iteration, its residual and the
    objective of every iterate."""

    iterations: int = 0
    residual: float = float("nan")
    objective_history: list = field(default_factory=list)


def bb_solve_point(pb: BBPointProblem, tol, max_iter=20000,
                   info: Optional[BBInfo] = None):
    """Minimize a (5,) point problem from its anchor to residual <= tol."""
    return _prox_gradient(pb, pb.anchor, tol, max_iter, info)


def _dot(a, b):
    return float(a @ b)


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


# ---------------------------------------------------------------------------
# the closure-based plane step and the numpy plane the fused kernel replaced


def shift_prox(xi, alpha, w, mu):
    """argmin of mu |z|^2 / 2 - xi.z + w |z - alpha| (plane coordinates),
    its norm s and ds/dmu."""
    d0, d1 = xi[0] - mu * alpha[0], xi[1] - mu * alpha[1]
    nd = math.hypot(d0, d1)
    if nd <= w:
        return alpha, math.hypot(*alpha), 0.0
    c = (1.0 - w / nd) / mu
    z = (alpha[0] * (w / nd) + xi[0] * c, alpha[1] * (w / nd) + xi[1] * c)
    s = math.hypot(*z)
    if s == 0.0:
        return z, s, 0.0
    dc = -((w / nd) * ((d0 * alpha[0] + d1 * alpha[1]) / nd) / nd + c) / mu
    dz0, dz1 = d0 * dc - alpha[0] * c, d1 * dc - alpha[1] * c
    return z, s, (z[0] * dz0 + z[1] * dz1) / s


def multiplier_root(g, lo, guess, trail, max_iter):
    """Point at the root of an increasing g above lo > 0, where g(lo) <= 0;
    g(mu) returns (value, derivative, point).  None when g stays negative
    up to MU_MAX."""
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
    for _ in range(max_iter):
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
    raise NonConvergence(f"multiplier root stalled after {max_iter} steps")


def sphere_prox(xi, alpha, modulus, k0, k1, r, trail, max_iter):
    """The step on the sphere |z| = r when the ball is active at it, else
    None."""
    def g(mu):
        z, s, ds = shift_prox(xi, alpha, k1, mu)
        return r - s, -ds, z

    mu0 = modulus + k0 / r
    if g(mu0)[0] > 0.0:
        return None
    z = multiplier_root(g, mu0, max((math.hypot(*xi) + k1) / r, mu0), trail,
                        max_iter)
    if z == alpha:
        return alpha
    nz = math.hypot(*z)
    return (z[0] * r / nz, z[1] * r / nz)


def plane_root(slopes, modulus, beta, alpha, w, s0, trail, max_iter):
    """The radial return of F(|x|) - beta.x + w |x - alpha| from the
    multiplier at the radius s0, slopes(s) = (F'(s), F''(s))."""
    def g(mu):
        x, s, ds = shift_prox(beta, alpha, w, mu)
        d1, d2 = slopes(s)
        return mu * s - d1, s + (mu - d2) * ds, x

    d1, d2 = slopes(s0)
    guess = min(d1 / s0, MU_MAX) if s0 > EPS * math.hypot(*beta) else d2
    x = multiplier_root(g, modulus, guess if guess > modulus else 2.0 * modulus,
                        trail, max_iter)
    return (0.0, 0.0) if x is None else x


def plane_step(beta, alpha, modulus, w0, w1, radius, core, s0, trail,
               max_iter):
    """The plane step composed of its parts, as before the fused kernel:
    the sphere, the anchor test, the origin test, then the radial return
    with the closure slopes of F(s) = modulus s^2/2 + w0 s + core(s)."""
    if radius is not None:
        y = sphere_prox(beta, alpha, modulus, w0, w1, radius, trail, max_iter)
        if y is not None:
            return y
    A = alpha[0]
    d = (beta[0] - modulus * A) - w0
    if core is not None:
        d -= radial_core_at(core, A)[1]
    if math.hypot(d, beta[1]) <= w1:
        return alpha
    if math.hypot(beta[0] + w1, beta[1]) <= w0:
        return (0.0, 0.0)
    if core is None:
        def slopes(s):
            return modulus * s + w0, modulus
    else:
        def slopes(s):
            _, d1, d2 = radial_core_at(core, s)
            return modulus * s + w0 + d1, modulus + d2
    return plane_root(slopes, modulus, beta, alpha, w1, s0, trail, max_iter)


def _unit(v, n):
    """v / n for n = |v| > 0, normalized again when n is subnormal."""
    u = v / n
    return u / math.hypot(*u.tolist()) if n < np.finfo(float).tiny else u


def plane(b, anchor):
    """Orthonormal basis (e1, e2) of span(b, anchor), e1 on the anchor (on
    b when the anchor is 0), with b = beta[0] e1 + beta[1] e2, beta[1] >= 0,
    and A = |anchor|, as numpy arrays: e2 is None when b lies on the
    anchor's line, e1 too when b = anchor = 0."""
    A = math.hypot(*anchor.tolist())
    if A > 0.0:
        e1 = _unit(anchor, A)
    else:
        nb = math.hypot(*b.tolist())
        if nb == 0.0:
            return None, None, (0.0, 0.0), 0.0
        e1 = _unit(b, nb)
    beta1 = float(b @ e1)
    perp = b - beta1 * e1
    beta2 = math.hypot(*perp.tolist())
    e2 = _unit(perp, beta2) if beta2 > 0.0 else None
    return e1, e2, (beta1, beta2), A


def point_kernel(pb, b, anchor, trail, max_iter):
    """The point kernel as numpy array operations around the composed plane
    step: the plane, the step, then the 5-d point of the plane coordinates
    (the anchor itself at alpha)."""
    e1, e2, beta, A = plane(b, anchor)
    if e1 is None:
        return np.zeros_like(b)
    alpha = (A, 0.0)
    y = plane_step(beta, alpha, 2.0 * pb.c2, pb.w_zero, pb.w_shift, pb.radius,
                   pb.core, A, trail, max_iter)
    if y == alpha:
        return anchor.copy()
    z = y[0] * e1
    return z if e2 is None else z + y[1] * e2


# ---------------------------------------------------------------------------
# the einsum assembly, the per-line field dump and the two-pass z-problem
# the kernels replaced


def element_scatter(n_rows, n_cols, rows, cols, vals):
    """CSR of the element entries vals at (rows, cols), each entry's terms
    summed in element order (np.add.at over the unique keys)."""
    keys = (rows * n_cols + cols).ravel()
    pairs, slot = np.unique(keys, return_inverse=True)
    data = np.zeros(len(pairs))
    np.add.at(data, slot.ravel(), vals.ravel())
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(pairs // n_cols, minlength=n_rows))])
    return sp.csr_matrix((data, pairs % n_cols, indptr), shape=(n_rows, n_cols))


def assemble_forms_einsum(space, params):
    """The element stiffness Ke (nt, 12, 12), the coupling block (nt, 12, 5)
    and the scattered K and Cup, the blocks formed by the plain einsums."""
    nn, tets = space.n_nodes, space.mesh.tets
    C6 = params.elastic.matrix6()
    D = _strain_displacement(space.grads)
    Ke = np.einsum("t,tia,ij,tjb->tab", space.vols, D, C6, D)
    blk = np.einsum("t,tia,ij,jk->tak", space.vols / 4.0, D, C6, DEV_BASIS)
    udofs = (3 * tets[:, :, None] + np.arange(3)[None, None, :]).reshape(-1, 12)
    zdofs = (5 * tets[:, :, None] + np.arange(5)[None, None, :]).reshape(-1, 20)
    K = element_scatter(3 * nn, 3 * nn, np.repeat(udofs, 12, axis=1),
                        np.tile(udofs, (1, 12)), Ke)
    Cup = element_scatter(3 * nn, 5 * nn, np.repeat(udofs, 20, axis=1),
                          np.tile(zdofs, (1, 12)), np.tile(blk, (1, 1, 4)))
    return Ke, blk, K, Cup


def dump_fields_loop(path, space, fields: dict):
    """The field dump with every node and tetrahedron line formatted by
    its own Python loop, value by value."""
    widths = {}
    arrays = {}
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        arr = arr.reshape(space.n_nodes, -1)
        widths[name] = arr.shape[1]
        arrays[name] = arr
    fields_desc = ",".join(f"{name}:{w}" for name, w in widths.items())
    lines = [f"# smaevol-fields nodes={space.n_nodes} tets={len(space.mesh.tets)} "
             f"fields={fields_desc}"]
    for i, x in enumerate(space.mesh.nodes):
        vals = [f"{v:.17g}" for v in x]
        for name in arrays:
            vals.extend(f"{v:.17g}" for v in arrays[name][i])
        lines.append(" ".join(vals))
    lines.append("# tets")
    for tet in space.mesh.tets:
        lines.append(" ".join(str(int(v)) for v in tet))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def step_smooth_grad(A_z, w, b, p, Z):
    """Value and gradient of a step's smooth z-problem at the (m, 5) field Z:
    0.5 z.A_z z - b.z plus the lumped radial core, the core's value and
    derivative each from its own function."""
    zf, az = Z.ravel(), (A_z @ Z).ravel()
    value = 0.5 * float(zf @ az) - float(b @ zf)
    g = (az - b).reshape(-1, 5)
    if p.rho > 0:
        r = np.linalg.norm(Z, axis=1)
        value += float(w @ radial_core_value(p, r))
        fac = np.zeros_like(r)
        pos = r > 0
        fac[pos] = radial_core_d1(p, r[pos]) / r[pos]
        fac[~pos] = p.c1 / p.rho
        g = g + (w * fac)[:, None] * Z
    return value, g


def first_order_residual(z, g, kinks, radius):
    """(residual, |z|, the kinks' share of the residual's roundoff floor) of
    one (5,) point, with 5-vector arithmetic.

    The residual is the distance from 0 to the subdifferential at z (g the
    smooth part's gradient, kinks the (center, weight) pairs of the norm
    terms, the ball's normal cone when |z| = radius), less the weight of
    each kink within roundoff of its center: <= 0 inside it.  A kink off
    its center shares its weight times the rounding of its direction."""
    _norm = lambda v: math.hypot(*v.tolist())
    v, nz, budget, share = -g, _norm(z), 0.0, 0.0
    for center, weight in kinks:
        d = z - center
        nd = _norm(d)
        if nd > 64.0 * EPS * (1.0 + nz):
            v = v - (weight / nd) * d
            share += weight * (nz + _norm(center)) / nd
        else:
            budget += weight
    if radius is not None and nz >= radius * (1.0 - BALL_SLACK):
        v = v - (max(0.0, float(v @ z)) / (nz * nz)) * z
    return _norm(v) - budget, nz, share


def closed_form_stability_residual(p: MaterialParams, sigma, state):
    """|C(eps - z) - sigma| plus the distance from 0 to the subdifferential
    of the point law at z, less R: 0 in grad F(z) - sigma_dev + R * unit
    ball (+ the transformation ball's normal cone in the sharp case), one
    hand-written branch per case."""
    eps = np.asarray(state.eps, dtype=float)
    z = np.asarray(state.z, dtype=float)
    r_eps = norm(p.elastic.apply(eps - dev_to_sym(z)) - np.asarray(sigma, dtype=float))
    b = dev_split(sigma)[0]
    nz = norm(z)
    if p.rho > 0:
        v = b - transformation_energy_grad(p, z)
        r_z = max(0.0, norm(v) - p.R)
    elif nz == 0.0:
        r_z = max(0.0, norm(b) - p.c1 - p.R)
    else:
        zhat = z / nz
        v = b - 2.0 * p.c2 * z - p.c1 * zhat
        if nz >= p.c3 * (1.0 - 1e-12):
            v = v - max(0.0, float(v @ zhat)) * zhat
        r_z = max(0.0, norm(v) - p.R)
    return float(r_eps + r_z)


def _ball(rng, dim, radius):
    u = rng.standard_normal(dim)
    u /= norm(u)
    return u * radius * rng.uniform() ** (1.0 / dim)


def probe_offsets_loop(seed, n_probes, radius):
    """The stability probes' strain and z offsets, one ball draw after the
    other from one Philox(seed) stream: per probe a strain offset, then a z
    offset, each a normal direction over its norm, times the radius, times
    uniform() ** (1/dim)."""
    rng = np.random.Generator(np.random.Philox(seed))
    return tuple(map(np.array, zip(*[(_ball(rng, 6, radius),
                                      _ball(rng, 5, radius))
                                     for _ in range(n_probes)])))


# ---------------------------------------------------------------------------
# the constitutive penalty, driver and node mapping the fast paths replaced


def penalty_every_piece(k, s, d):
    """The k-th derivative of phi on an array s, every piece on every entry."""
    f = _PIECES[k]
    return np.where(s <= d, f[0](s, d),
                    np.where(s <= 2 * d, f[1](s, d), f[2](s, d)))


def run_constitutive_loop(p: MaterialParams, path: StressPath,
                          grid: TimeGrid) -> PointTrajectory:
    """Incremental evolution along the grid, with the exact energy ledger."""
    n = grid.steps
    sig0 = path.value(grid.nodes[0])
    init = checked_initial_state(p, sig0)

    eps = np.zeros((n + 1, 6))
    z = np.zeros((n + 1, 5))
    stored = np.zeros(n + 1)
    comp = np.zeros(n + 1)
    diss_inc = np.zeros(n + 1)
    work = np.zeros(n + 1)
    eps[0], z[0] = init.eps, init.z
    stored[0] = stored_energy_density(p, init.eps, init.z)
    comp[0] = stored[0] - float(np.asarray(sig0) @ init.eps)
    sig_prev = sig0
    for i in range(1, n + 1):
        sig = path.value(grid.nodes[i])
        st = incremental_step(p, sig, z[i - 1])
        eps[i], z[i] = st.eps, st.z
        stored[i] = stored_energy_density(p, st.eps, st.z)
        comp[i] = stored[i] - float(sig @ st.eps)
        diss_inc[i] = p.R * norm(z[i] - z[i - 1])
        # exact for piecewise-linear sigma against the piecewise-constant
        # right-continuous strain interpolant
        work[i] = work[i - 1] + float((sig - sig_prev) @ eps[i - 1])
        sig_prev = sig
    cum = np.cumsum(diss_inc)
    residual = (comp + cum) - (comp[0] - work)
    return PointTrajectory(grid, eps, z, stored, cum, work, residual)


def stress_value(path: StressPath, t: float) -> np.ndarray:
    """The stress of the path at the one time t, clamped to [t0, T]."""
    t = min(max(t, path.times[0]), path.times[-1])
    i = int(np.searchsorted(path.times, t, side="right")) - 1
    i = min(i, len(path.times) - 2)
    t0, t1 = path.times[i], path.times[i + 1]
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * path.values[i] + w * path.values[i + 1]


def node_index_argmin(nodes, t) -> int:
    """Index of the node at t (to a relative 1e-9); ValueError if no
    node is there, so a table never compares states at two times."""
    j = int(np.argmin(np.abs(nodes - t)))
    if abs(nodes[j] - t) > 1e-9 * max(1.0, nodes[-1]):
        raise ValueError(f"t = {t:g} is not a node of the grid")
    return j


# ---------------------------------------------------------------------------
# tensor constructors and path reparametrization used by tests only


def sym_to_matrix(a) -> np.ndarray:
    """Full 3x3 matrix of a 6-component symmetric tensor."""
    a = np.asarray(a, dtype=float)
    return np.array([
        [a[0], a[5] / SQ2, a[4] / SQ2],
        [a[5] / SQ2, a[1], a[3] / SQ2],
        [a[4] / SQ2, a[3] / SQ2, a[2]],
    ])


def dev_from_sym(a) -> np.ndarray:
    """Orthogonal projection of a symmetric tensor onto the deviators."""
    return DEV_BASIS.T @ np.asarray(a, dtype=float)


def sym_from_diag(d1, d2, d3) -> np.ndarray:
    return np.array([d1, d2, d3, 0.0, 0.0, 0.0], dtype=float)


def reparametrized(path: StressPath, fn, new_times) -> StressPath:
    """The path's trace run through an increasing bijection fn."""
    new_times = np.asarray(new_times, dtype=float)
    return StressPath(new_times, np.array([path.value(fn(t)) for t in new_times]))
