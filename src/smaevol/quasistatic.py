"""Quasi-static boundary-value evolution by incremental minimization.

Each time step minimizes the discrete step functional over displacement
and transformation-strain fields with the previous transformation strain
as the dissipation anchor.  Internally everything is solved in the
shifted variable v = u - u_dir, which has homogeneous Dirichlet data and
a fixed phase space; the boundary program and the load enter through the
linear functional

    <L(t), (v, z)> = <l(t), v> - int C(eps(v) - z) : eps(u_dir(t))

and the scalar offset q(t) = elastic energy of the lifting minus its load
pairing.  The step solver alternates an exact sparse elasticity solve for
v with a nodal-prox proximal-gradient solve for z, whose first-order
residual at its start is the joint residual that stops the alternation.
The z-problem reaches that solve as smooth_part (its smooth part's value
and gradient) at each sweep's right-hand side.  Dof vectors follow fem's
layout (raveled (n_nodes, 3) and (n_nodes, 5) arrays), and A_z =
2 z_block() acts on the (n_nodes, 5) array.  The free u-dofs are one index
array in nested-dissection order, in which the SPD stiffness
K_ff = K[dofs][:, dofs] is factored without pivoting, as is S = z_block() in
the nodes' own order: both when the solver is built, and nothing after.

A run builds its load data once: u_dir(t), l(t) and L(t) are amplitude-
weighted sums of the unit liftings, unit loads and functionals Lambda_c of
the load program's at most three channels.  The a priori ledger bound
needs the dual energy norms of the same L(t_i); they come from the Gram
matrix of the Lambda_c, so the joint (u, z) energy matrix H is applied but
never factored: its CG solves are preconditioned by its diagonal blocks
P = blockdiag(K_ff / 2, S (x) I5), S = z_block(), through solve_P.  As
int C eps(u) : z <= sqrt(u K u) sqrt(2 G z . M z), H lies within
(1 -+ theta) P, theta = sqrt(G / (G + c2)), on every mesh, so a step is
2 lam-strongly convex in the P-norm, lam = 1 - theta.  A state is stable
when it solves its own step (its load, anchored at it), and any
subgradient s there certifies that it is at most |s|^2_{P^-1} / (4 lam)
above the step's minimum.  stability_bounds builds s from the step's own
pieces (solve_v's residual, smooth_part's gradient, and prox_nodal's row
check proxsolve.first_order_rows for the kinks and the ball) and its norm
by solve_P.  A run checks its start state, verify_energetic every later
state, by this bound against the one tolerance STABILITY_TOL.

The discrete energies reported in the ledger use the same quadrature as
the minimized functional: exact for all quadratic terms, nodal-lumped for
the transformation core and the dissipation, so the one-sided discrete
energy inequality is checked exactly, not modulo quadrature error.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from .constitutive import TimeGrid, UnstableInitialState
from .fem import (FeSpace, LoadProgram, SingularFormError, assemble_forms,
                  box_mesh, build_space, nested_dissection)
from .material import BALL_SLACK, MaterialParams, radial_core
from .proxsolve import (STABILITY_TOL, NonConvergence, StepProblem, _trail,
                        first_order_rows, row_norms, solve_field)


MAX_SWEEPS = 200
# ledger-bound CG: the preconditioned spectrum lies in 1 +- sqrt(G/(G + c2))
# on every mesh; 43 iterations at c2 = G/2, under 200 at c2 = G/1000 (n = 4)
CG_MAX_ITER = 1000
CG_RTOL = 1e-13


def _power_lambda_max(A):
    x = np.ones((A.shape[0], 5))
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(60):
        y = A @ x
        n = np.linalg.norm(y)
        if n == 0:
            return 1.0
        lam = n
        x = y / n
    return float(lam)


def _splu_spd(A):
    """SuperLU factors of an SPD A in its given (fill-reducing) order."""
    return spla.splu(A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


class QuasistaticSolver:
    """Per-(space, material) engine; its two factorizations, K_ff and S,
    are made at construction."""

    def __init__(self, space: FeSpace, params: MaterialParams):
        self.space = space
        self.params = params
        self.forms = assemble_forms(space, params)
        if not space.dirichlet_nodes.any():
            raise SingularFormError("need a Dirichlet part with positive area")
        order = nested_dissection(space.mesh, ~space.dirichlet_nodes)
        self.dofs = dofs = (3 * order[:, None] + np.arange(3)).ravel()
        self.K_ff = self.forms.K[dofs][:, dofs]
        self.lu = _splu_spd(self.K_ff)
        S = self.forms.z_block()
        self.S_nodes = nodes = nested_dissection(space.mesh)
        self.S_lu = _splu_spd(S[nodes][:, nodes])
        self.A_z = (2.0 * S).tocsr()   # acts on (m, 5)
        self.Cup_T = self.forms.Cup.T.tocsr()   # the z-load of a v (CSR: same sums)
        self.w = w = space.lumped
        # the step's nonsmooth weights; the zero kink and the ball are sharp
        sharp = params.rho == 0
        self.w_shift = w * params.R
        self.w_zero, self.radius = (w * params.c1, params.c3) if sharp else (None, None)
        core = 0.0 if sharp else params.core_curvature
        self.z_lipschitz = 1.01 * _power_lambda_max(self.A_z) + core * w.max()
        G = params.elastic.G
        self.lam = 1.0 - math.sqrt(G / (G + params.c2))   # the docstring's lam

    # -- pieces of the step functional ------------------------------------

    def core_energy(self, z) -> float:
        """Lumped non-quadratic transformation energy of a z dof-vector."""
        r = row_norms(z.reshape(-1, 5))
        if self.params.rho > 0:
            return float(self.w @ radial_core(self.params, r)[0])
        return float(self.params.c1 * (self.w @ r))

    def stored_energy(self, u, z) -> float:
        """Discrete stored energy (quadratic part exact, core lumped)."""
        return self.forms.energy_value((u, z)) + self.core_energy(z)

    def dissipation_increment(self, z1, z0) -> float:
        dr = row_norms((z1 - z0).reshape(-1, 5))
        return float(self.params.R * (self.w @ dr))

    def lifted_load(self, u_dir, ell):
        """The functional (L_u, L_z) of v = u - u_dir (columnwise for 2-d)."""
        return ell - self.forms.K @ u_dir, self.Cup_T @ u_dir

    def solve_v(self, b_u):
        v = np.zeros(self.space.n_u)
        v[self.dofs] = self.lu.solve(b_u[self.dofs])
        return v

    def solve_P(self, r):
        """P^-1 r for P = blockdiag(K_ff / 2, S (x) I5) (the module
        docstring), r stacked as (the free u-dofs in dof order, the z-dofs)."""
        nodes, nf = self.S_nodes, len(self.dofs)
        Y = np.empty((len(nodes), 5))
        Y[nodes] = self.S_lu.solve(r[nf:].reshape(-1, 5)[nodes])
        return np.concatenate([2.0 * self.lu.solve(r[:nf]), Y.ravel()])

    def smooth_part(self, Z, b):
        """Value and z-gradient of the step's smooth part at the (m, 5) field
        Z: 0.5 z.A_z z - b.z plus the lumped radial core (rho > 0)."""
        p = self.params
        zf, az = Z.ravel(), (self.A_z @ Z).ravel()
        value = 0.5 * float(zf @ az) - float(b @ zf)
        g = (az - b).reshape(-1, 5)
        if p.rho > 0:
            r = row_norms(Z)
            core, d1 = radial_core(p, r)
            value += float(self.w @ core)
            pos = r > 0
            fac = np.where(pos, d1 / np.where(pos, r, 1.0), p.c1 / p.rho)
            g = g + (self.w * fac)[:, None] * Z
        return value, g

    def stability_bounds(self, L_u, L_z, v, z) -> np.ndarray:
        """The module docstring's bound for the states in the rows of v, z
        under the loads in the rows of L_u, L_z (inf for a sharp state off
        the ball): s is the v-gradient on the free dofs and, per node, the
        subgradient first_order_rows leaves of the step anchored at z."""
        p = self.params
        bounds = np.full(len(v), math.inf)
        for i, (v_i, z_i, Lu_i, Lz_i) in enumerate(zip(v, z, L_u, L_z)):
            Z = z_i.reshape(-1, 5)
            r = row_norms(Z)
            if p.rho == 0 and r.max() > p.c3 * (1.0 + BALL_SLACK):
                continue                                   # off the ball: inf
            V = -self.smooth_part(Z, self.Cup_T @ v_i + Lz_i)[1]
            first_order_rows(Z, V, ((None, 0.0, self.w_zero),
                                    (Z, r, self.w_shift)), self.radius)
            s = np.concatenate([(self.forms.K @ v_i - self.forms.Cup @ z_i
                                 - Lu_i)[self.dofs], V.ravel()])
            bounds[i] = float(s @ self.solve_P(s)) / (4.0 * self.lam)
        return bounds

    # -- one incremental minimization --------------------------------------

    def solve_step(self, L_u, L_z, anchor, tol=1e-9):
        """Minimize W(v,z) - <L,(v,z)> + R |z - anchor| over the v,z fields,
        starting the alternation from z = anchor."""
        anchors = anchor.reshape(-1, 5)
        z = anchors.copy()
        scale = 1.0 + np.linalg.norm(L_u) + np.linalg.norm(L_z)
        # one step problem for every sweep: its smooth part reads the current
        # right-hand side b of the z-problem, which each sweep reassigns
        fp = StepProblem(lambda Z: self.smooth_part(Z, b), self.z_lipschitz,
                         self.w_shift, anchors, self.w_zero, self.radius)
        step_tol = tol * scale

        def inner_tol(res):
            # a start within the step tolerance ends the step; any other
            # sweep solves the z-problem to a fraction of its start residual
            return (step_tol if res <= step_tol
                    else max(0.2 * res, 0.45 * tol * scale))

        trail = []
        for sweep in range(MAX_SWEEPS):
            v = self.solve_v(self.forms.Cup @ z.ravel() + L_u)
            b = self.Cup_T @ v + L_z
            z, res = solve_field(fp, z, inner_tol)
            if res <= step_tol:
                return v, z.ravel(), {"sweeps": sweep, "residual": res}
            trail.append(res)
        raise NonConvergence(
            f"step stalled at joint residual {res:.3e} after {MAX_SWEEPS} "
            f"sweeps; joint residuals {_trail(trail)}")


@dataclass
class AprioriBound:
    """Explicit ledger bound from the data (no Gronwall constant left free).

    From step minimality, max over nodes of stored energy plus accumulated
    dissipation is at most c0 + b * S with c0 = W_0 + |L_0| sqrt(W_0),
    b = max_i |L_i| + sum_i |L_i - L_{i-1}| (dual energy norms) and
    S = (b + sqrt(b^2 + 4 c0)) / 2.  The dual norms are computed from the
    load program's channels (see _dual_norms): at most three CG solves,
    whatever the number of steps.
    """

    c0: float
    b: float
    total: float


@dataclass
class EvolutionRecord:
    grid: TimeGrid
    solver: QuasistaticSolver    # forms and factorizations, reused downstream
    v: np.ndarray                # (N+1, n_u) homogeneous-Dirichlet states
    z: np.ndarray                # (N+1, n_z)
    u_dir: np.ndarray            # (N+1, n_u) liftings
    L_u: np.ndarray
    L_z: np.ndarray
    q: np.ndarray                # (N+1,)
    stored_v: np.ndarray         # W(v_i, z_i)
    stored_u: np.ndarray         # W(u_i, z_i)
    load_pair: np.ndarray        # <l_i, u_i>
    L_pair: np.ndarray           # <L_i, (v_i, z_i)>
    cum_diss: np.ndarray
    worksum: np.ndarray          # sum_{j<=i} <L_j - L_{j-1}, y_{j-1}>
    residual: np.ndarray         # discrete one-sided inequality defect
    apriori: AprioriBound
    sweeps: np.ndarray           # solve_step's sweep count per step (0 at t0)
    start_bound: float           # stability bound of the start state (row 0)

    @property
    def u(self) -> np.ndarray:
        return self.v + self.u_dir

    @property
    def ledger_peak(self) -> float:
        """Largest stored energy plus accumulated dissipation over the steps."""
        return float((self.stored_v + self.cum_diss).max())

    @property
    def bound_ok(self) -> bool:
        """The ledger peak is within the a priori bound (relative 1e-6)."""
        bound = self.apriori.total
        return self.ledger_peak <= bound + 1e-6 * (1 + bound)

    def nodal_z_norms(self) -> np.ndarray:
        """The largest nodal |z| of each step."""
        return row_norms(self.z.reshape(-1, 5)).reshape(len(self.z), -1).max(axis=1)

    def max_nodal_z_norm(self) -> float:
        return float(self.nodal_z_norms().max())


def _pcg(apply_H, apply_P, b):
    """Preconditioned CG for H x = b down to a relative residual CG_RTOL."""
    x, r = np.zeros_like(b), b.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x
    trail, p, rs = [1.0], None, None
    for _ in range(CG_MAX_ITER):
        s = apply_P(r)
        rs, rs_old = float(r @ s), rs
        p = s if p is None else s + (rs / rs_old) * p
        Hp = apply_H(p)
        alpha = rs / float(p @ Hp)
        x += alpha * p
        r -= alpha * Hp
        trail.append(float(np.linalg.norm(r)) / b_norm)
        if trail[-1] <= CG_RTOL:
            return x
    raise NonConvergence(
        f"ledger-bound CG stalled after {CG_MAX_ITER} iterations; relative "
        f"residuals {_trail(trail)}")


def _dual_norms(solver: QuasistaticSolver, amps, Lam_u, Lam_z):
    """Dual energy norms |L_i| of the load functionals and |L_i - L_{i-1}|
    of their increments.

    L_i = sum_c amps[c, i] Lambda_c over the channel functionals Lambda_c =
    (Lam_u[:, c], Lam_z[:, c]), so |L_i|^2 = a_i . Gamma a_i with the Gram
    matrix Gamma_kl = Lambda_k . H^-1 Lambda_l of the constrained energy
    matrix H; one CG solve per channel on the solver's dofs, preconditioned
    by solver.solve_P, gives it.  The coupling applies the solver's Cup and
    Cup_T through a full-length u vector, so no free-row copy of Cup is made.
    """
    if not len(amps):
        return np.zeros(amps.shape[1]), np.zeros(amps.shape[1] - 1)
    dofs, nf = solver.dofs, len(solver.dofs)
    u = np.zeros(solver.space.n_u)   # zero off dofs for good

    def apply_H(y):
        yu, yz = y[:nf], y[nf:]
        u[dofs] = yu
        return np.concatenate([0.5 * (solver.K_ff @ yu
                                      - (solver.forms.Cup @ yz)[dofs]),
                               0.5 * ((solver.A_z @ yz.reshape(-1, 5)).ravel()
                                      - solver.Cup_T @ u)])

    Lam = np.vstack([Lam_u[dofs], Lam_z]).T
    X = [_pcg(apply_H, solver.solve_P, L) for L in Lam]
    gram = np.array([[Lk @ x for x in X] for Lk in Lam])
    gram = 0.5 * (gram + gram.T)   # H is symmetric; the CG solves are not exact

    def norms(a):
        return np.sqrt(np.maximum(np.einsum("ki,kl,li->i", a, gram, a), 0.0))

    return norms(amps), norms(np.diff(amps, axis=1))


def run_incremental_bvp(space: FeSpace, params: MaterialParams, grid: TimeGrid,
                        program: LoadProgram) -> EvolutionRecord:
    """Incremental evolution with the discrete energetic ledger."""
    solver = QuasistaticSolver(space, params)
    n = grid.steps
    times = grid.nodes
    # each load datum: the channels' amplitude-weighted unit data
    amps, liftings, loads = program.channels(space, times)
    Lam_u, Lam_z = solver.lifted_load(liftings.T, loads.T)
    u_dir, ell, L_u, L_z = (amps.T @ X for X in (liftings, loads, Lam_u.T,
                                                  Lam_z.T))
    # u_dir.K u_dir / 2 - ell.u_dir by K u_dir = ell - L_u; +0 for no lifting
    q = np.einsum("ij,ij->i", u_dir, -0.5 * (ell + L_u))

    z = np.zeros((n + 1, space.n_z))
    v = np.zeros((n + 1, space.n_u))
    # initial state z = 0, elastic at t0, certified like every later state
    v[0] = solver.solve_v(solver.forms.Cup @ z[0] + L_u[0])
    bound0 = solver.stability_bounds(L_u[:1], L_z[:1], v[:1], z[:1])[0]
    if bound0 > STABILITY_TOL:
        raise UnstableInitialState(f"initial state is not stable at t = "
                                   f"{times[0]} (stability bound {bound0:.2e})")

    sweeps = np.zeros(n + 1, dtype=int)
    diss_inc = np.zeros(n + 1)
    worksum = np.zeros(n + 1)
    for i in range(1, n + 1):
        try:
            v[i], z[i], info = solver.solve_step(L_u[i], L_z[i], z[i - 1])
        except NonConvergence as e:
            raise NonConvergence(f"step {i} at t = {times[i]:.6g}: {e}") from e
        sweeps[i] = info["sweeps"]
        diss_inc[i] = solver.dissipation_increment(z[i], z[i - 1])
        worksum[i] = (worksum[i - 1] + float((L_u[i] - L_u[i - 1]) @ v[i - 1])
                      + float((L_z[i] - L_z[i - 1]) @ z[i - 1]))
    stored_v = np.array([solver.stored_energy(v[i], z[i]) for i in range(n + 1)])
    L_pair = np.array([float(L_u[i] @ v[i]) + float(L_z[i] @ z[i])
                       for i in range(n + 1)])
    cum = np.cumsum(diss_inc)
    E = stored_v - L_pair
    residual = (E + cum) - (E[0] - worksum)

    norms, dnorms = _dual_norms(solver, amps, Lam_u, Lam_z)
    c0 = float(stored_v[0] + norms[0] * math.sqrt(max(stored_v[0], 0.0)))
    b = float(norms.max() + dnorms.sum())
    S = 0.5 * (b + math.sqrt(b * b + 4.0 * max(c0, 0.0)))
    bound = AprioriBound(c0, b, c0 + b * S)

    stored_u = np.array([solver.stored_energy(v[i] + u_dir[i], z[i])
                         for i in range(n + 1)])
    load_pair = np.array([float(ell[i] @ (v[i] + u_dir[i])) for i in range(n + 1)])
    return EvolutionRecord(grid, solver, v, z, u_dir, L_u, L_z, q,
                           stored_v, stored_u, load_pair, L_pair, cum,
                           worksum, residual, bound, sweeps, bound0)


@dataclass
class EnergeticReport:
    stability_worst: np.ndarray   # per step: certified bound on its violation

    @property
    def passed(self) -> bool:
        return float(self.stability_worst.max(initial=0.0)) <= STABILITY_TOL


def verify_energetic(record: EvolutionRecord) -> EnergeticReport:
    """Every state's certified stability bound (stability_bounds, lam = 1 -
    sqrt(G / (G + c2))): the run's own bound of its start state, then one
    per later state; the energy inequality's defect is record.residual."""
    later = record.solver.stability_bounds(record.L_u[1:], record.L_z[1:],
                                           record.v[1:], record.z[1:])
    return EnergeticReport(np.concatenate([[record.start_bound], later]))


# ---------------------------------------------------------------------------
# problem bundles and space-time runs


@dataclass
class BvpProblem:
    """Mesh/material/load bundle for the evolution studies."""

    params: MaterialParams
    program: LoadProgram
    extents: tuple = (1.0, 1.0, 1.0)
    n: int = 2
    dirichlet_planes: tuple = ("x0",)
    _spaces: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if not self.dirichlet_planes:
            raise ValueError("need a nonempty Dirichlet part")
        self.program.check_dirichlet_planes(self.dirichlet_planes)

    def space(self, n: Optional[int] = None) -> FeSpace:
        """The space on the n-cell box mesh, built once per n."""
        k = self.n if n is None else n
        if k not in self._spaces:
            self._spaces[k] = build_space(box_mesh(self.extents, (k, k, k)),
                                          self.dirichlet_planes)
        return self._spaces[k]


def spacetime_run(problem: BvpProblem, rho: float, nu: float, tau: float,
                  n: int) -> EvolutionRecord:
    """One (rho, nu, tau, h) member of the space-time approximation family;
    its record carries the explicit ledger-bound check (bound_ok)."""
    return run_incremental_bvp(
        problem.space(n), replace(problem.params, rho=rho, nu=nu),
        TimeGrid.with_step(problem.program.T, tau), problem.program)
