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
The z-problem reaches that solve as one callback giving the value and
gradient of its smooth part.  Dof vectors follow fem's layout (raveled
(n_nodes, 3) and (n_nodes, 5) arrays), and the z-step matrix
A_z = 2 z_block() acts on the (n_nodes, 5) array.  The free u-dofs are
one index array in nested-dissection order, in which the SPD stiffness
K_ff = K[dofs][:, dofs] is factored once per solver, without pivoting.

A run builds its load data once: u_dir(t), l(t) and L(t) are amplitude-
weighted sums of the unit liftings, unit loads and functionals Lambda_c of
the load program's at most three channels.  The a priori ledger bound
needs the dual energy norms of the same L(t_i); they come from the Gram
matrix of the Lambda_c, so the joint (u, z) energy matrix is applied but
never factored.

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
from .fem import (FeSpace, LoadProgram, StepForms, assemble_forms, box_mesh,
                  build_space, inject, nested_dissection)
from .material import MaterialParams, radial_core
from .proxsolve import NonConvergence, StepProblem, project_ball, solve_field


MAX_SWEEPS = 200
# ledger-bound CG: the preconditioned spectrum lies in 1 +- sqrt(G/(G + c2))
# on every mesh; 43 iterations at c2 = G/2, under 200 at c2 = G/1000 (n = 4)
CG_MAX_ITER = 1000
CG_RTOL = 1e-13


class SingularSystem(Exception):
    """The constrained elasticity system is singular (no Dirichlet part)."""


def _power_lambda_max(A, iters=60):
    x = np.ones((A.shape[0], 5))
    x /= np.linalg.norm(x)
    lam = 1.0
    for _ in range(iters):
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
    """Per-(space, material) engine with cached factorizations."""

    def __init__(self, space: FeSpace, params: MaterialParams):
        self.space = space
        self.params = params
        self.forms = assemble_forms(space, params)
        if not space.dirichlet_nodes.any():
            raise SingularSystem("need a Dirichlet part with positive area")
        order = nested_dissection(space.mesh, ~space.dirichlet_nodes)
        self.dofs = dofs = (3 * order[:, None] + np.arange(3)).ravel()
        self.K_ff = self.forms.K[dofs][:, dofs]
        self.lu = _splu_spd(self.K_ff)
        self.A_z = (2.0 * self.forms.z_block()).tocsr()   # acts on (m, 5)
        self.Cup_T = self.forms.Cup.T.tocsr()   # the z-load of a v (CSR: same sums)
        self.w = space.lumped
        core = params.core_curvature if params.rho > 0 else 0.0
        lam = _power_lambda_max(self.A_z)
        self.z_lipschitz = 1.01 * lam + core * self.w.max()

    # -- pieces of the step functional ------------------------------------

    def core_energy(self, z) -> float:
        """Lumped non-quadratic transformation energy of a z dof-vector."""
        r = np.linalg.norm(z.reshape(-1, 5), axis=1)
        if self.params.rho > 0:
            return float(self.w @ radial_core(self.params, r)[0])
        return float(self.params.c1 * (self.w @ r))

    def stored_energy(self, u, z) -> float:
        """Discrete stored energy (quadratic part exact, core lumped)."""
        return self.forms.energy_value((u, z)) + self.core_energy(z)

    def dissipation_increment(self, z1, z0) -> float:
        dr = np.linalg.norm((z1 - z0).reshape(-1, 5), axis=1)
        return float(self.params.R * (self.w @ dr))

    def lifted_load(self, u_dir, ell):
        """The functional (L_u, L_z) of v = u - u_dir (columnwise for 2-d)."""
        return ell - self.forms.K @ u_dir, self.Cup_T @ u_dir

    def solve_v(self, b_u):
        v = np.zeros(self.space.n_u)
        v[self.dofs] = self.lu.solve(b_u[self.dofs])
        return v

    # -- one incremental minimization --------------------------------------

    def solve_step(self, L_u, L_z, anchor, tol=1e-9):
        """Minimize W(v,z) - <L,(v,z)> + R |z - anchor| over the v,z fields,
        starting the alternation from z = anchor."""
        p = self.params
        anchors = anchor.reshape(-1, 5)
        z = anchors.copy()
        w_shift = self.w * p.R
        w_zero = self.w * p.c1 if p.rho == 0 else None
        radius = p.c3 if p.rho == 0 else None
        scale = 1.0 + np.linalg.norm(L_u) + np.linalg.norm(L_z)

        # one step problem for every sweep: smooth_grad reads the current
        # right-hand side b of the z-problem, which each sweep reassigns
        def smooth_grad(Z):
            zf, az = Z.ravel(), (self.A_z @ Z).ravel()
            value = 0.5 * float(zf @ az) - float(b @ zf)
            g = (az - b).reshape(-1, 5)
            if p.rho > 0:
                r = np.sqrt(np.add.reduce(Z * Z, axis=1))  # = norm(Z, axis=1)
                core, d1 = radial_core(p, r)
                value += float(self.w @ core)
                pos = r > 0
                fac = np.where(pos, d1 / np.where(pos, r, 1.0), p.c1 / p.rho)
                g = g + (self.w * fac)[:, None] * Z
            return value, g

        fp = StepProblem(smooth_grad, self.z_lipschitz, w_shift, anchors,
                         w_zero, radius)
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
            f"sweeps; joint residuals {' '.join(f'{r:.2e}' for r in trail)}")


def solve_bvp_step(solver: QuasistaticSolver, u_dir, load_u, anchor):
    """Solve one step of the incremental problem in the physical variables:
    u_dir is the full lifted Dirichlet vector; returns (u, z)."""
    v, z, _ = solver.solve_step(*solver.lifted_load(u_dir, load_u), anchor)
    return v + u_dir, z


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
    diss_inc: np.ndarray
    cum_diss: np.ndarray
    worksum: np.ndarray          # sum_{j<=i} <L_j - L_{j-1}, y_{j-1}>
    residual: np.ndarray         # discrete one-sided inequality defect
    apriori: AprioriBound
    sweeps: np.ndarray           # solve_step's sweep count per step (0: start check)

    @property
    def u(self) -> np.ndarray:
        return self.v + self.u_dir

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def ledger_peak(self) -> float:
        """Largest stored energy plus accumulated dissipation over the steps."""
        return float((self.stored_v + self.cum_diss).max())

    def nodal_z_norms(self) -> np.ndarray:
        """The largest nodal |z| of each step."""
        return np.linalg.norm(self.z.reshape(len(self.z), -1, 5), axis=2).max(axis=1)

    def max_nodal_z_norm(self) -> float:
        return float(self.nodal_z_norms().max())

    def rows(self):
        header = ["t", "stored_energy", "load_pairing", "cum_dissipation",
                  "work_sum", "balance_residual", "q", "L_pairing",
                  "max_nodal_z"]
        body = []
        zmax = self.nodal_z_norms()
        for i, t in enumerate(self.grid.nodes):
            body.append([t, self.stored_u[i], self.load_pair[i], self.cum_diss[i],
                         self.worksum[i], self.residual[i], self.q[i],
                         self.L_pair[i], zmax[i]])
        return header, body


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
        f"residuals {' '.join(f'{t:.2e}' for t in trail)}")


def _dual_norms(solver: QuasistaticSolver, amps, Lam_u, Lam_z):
    """Dual energy norms |L_i| of the load functionals and |L_i - L_{i-1}|
    of their increments.

    L_i = sum_c amps[c, i] Lambda_c over the channel functionals Lambda_c =
    (Lam_u[:, c], Lam_z[:, c]), so |L_i|^2 = a_i . Gamma a_i with the Gram
    matrix Gamma_kl = Lambda_k . H^-1 Lambda_l of the constrained energy
    matrix H; one CG solve per channel, preconditioned with the diagonal
    blocks blockdiag(K_ff / 2, S (x) I5) of H, gives it.  The u-part runs
    on the solver's dofs, so the preconditioner reuses its K_ff factors; it
    factors only S = z_block(), in the nested-dissection order of all nodes.
    The coupling applies the solver's Cup and Cup_T through a full-length
    u vector, so no free-row copy of Cup is made.
    With int C eps(u) : z <= sqrt(u K u) sqrt(2 G z . M z) the
    preconditioned spectrum lies in 1 +- sqrt(G / (G + c2)), whatever the
    mesh.
    """
    if not len(amps):
        return np.zeros(amps.shape[1]), np.zeros(amps.shape[1] - 1)
    dofs, nf = solver.dofs, len(solver.dofs)
    nodes = nested_dissection(solver.space.mesh)
    S_lu = _splu_spd(solver.forms.z_block()[nodes][:, nodes])
    u = np.zeros(solver.space.n_u)   # zero off dofs for good

    def apply_H(y):
        yu, yz = y[:nf], y[nf:]
        u[dofs] = yu
        return np.concatenate([0.5 * (solver.K_ff @ yu
                                      - (solver.forms.Cup @ yz)[dofs]),
                               0.5 * ((solver.A_z @ yz.reshape(-1, 5)).ravel()
                                      - solver.Cup_T @ u)])

    def apply_P(r):
        R, Y = r[nf:].reshape(-1, 5), np.empty((len(nodes), 5))
        Y[nodes] = S_lu.solve(R[nodes])
        return np.concatenate([2.0 * solver.lu.solve(r[:nf]), Y.ravel()])

    Lam = np.vstack([Lam_u[dofs], Lam_z]).T
    X = [_pcg(apply_H, apply_P, L) for L in Lam]
    gram = np.array([[Lk @ x for x in X] for Lk in Lam])
    gram = 0.5 * (gram + gram.T)   # H is symmetric; the CG solves are not exact

    def norms(a):
        return np.sqrt(np.maximum(np.einsum("ki,kl,li->i", a, gram, a), 0.0))

    return norms(amps), norms(np.diff(amps, axis=1))


def run_incremental_bvp(space: FeSpace, params: MaterialParams, grid: TimeGrid,
                        program: LoadProgram,
                        z0: Optional[np.ndarray] = None) -> EvolutionRecord:
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

    sweeps = np.zeros(n + 1, dtype=int)

    def step(i, anchor):
        try:
            v_i, z_i, info = solver.solve_step(L_u[i], L_z[i], anchor)
        except NonConvergence as e:
            raise NonConvergence(f"step {i} at t = {times[i]:.6g}: {e}") from e
        sweeps[i] = info["sweeps"]
        return v_i, z_i

    z = np.zeros((n + 1, space.n_z))
    v = np.zeros((n + 1, space.n_u))
    z[0] = np.zeros(space.n_z) if z0 is None else np.asarray(z0, dtype=float)
    # initial state: elastic equilibrium at t0, then fixed-point consistency
    v[0] = solver.solve_v(solver.forms.Cup @ z[0] + L_u[0])
    v_chk, z_chk = step(0, z[0])
    scale0 = 1.0 + math.sqrt(max(solver.stored_energy(v[0], z[0]), 0.0))
    drift = np.linalg.norm(z_chk - z[0]) + np.linalg.norm(v_chk - v[0])
    if drift > 1e-6 * scale0:
        raise UnstableInitialState(
            f"initial state is not stable at t = {times[0]} (drift {drift:.2e})")

    diss_inc = np.zeros(n + 1)
    worksum = np.zeros(n + 1)
    for i in range(1, n + 1):
        v[i], z[i] = step(i, z[i - 1])
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
                           stored_v, stored_u, load_pair, L_pair, diss_inc,
                           cum, worksum, residual, bound, sweeps)


@dataclass
class EnergeticReport:
    stability_worst: np.ndarray   # per sampled node
    residual_max: float           # one-sided inequality defect (signed max)
    gap: float                    # two-sided balance gap
    tau: float
    tol: float
    seed: int

    @property
    def passed(self) -> bool:
        return float(self.stability_worst.max(initial=0.0)) <= self.tol


def verify_energetic(record: EvolutionRecord, n_probes=20, tol=1e-8,
                     seed=0) -> EnergeticReport:
    """Spot-check stability and the discrete energy inequality.

    Competitors are the state plus random dof perturbations (zeroed on the
    Dirichlet part, transformation strain clamped into the ball in the
    sharp case) and interpolants of smooth manufactured fields.
    """
    solver = record.solver
    rng = np.random.Generator(np.random.Philox(seed))
    space = solver.space
    p = solver.params
    worst = np.full(len(record.grid.nodes), -math.inf)

    # one smooth manufactured (u, z) profile, u zeroed on the Dirichlet part
    X = space.mesh.nodes
    prof_u = np.stack([np.sin(np.pi * X[:, 0]) * X[:, 1], X[:, 2] * X[:, 0],
                       0.2 * X[:, 1]], axis=1).ravel()
    prof_u[~space.u_free] = 0.0
    prof_z = 0.1 * np.stack([0.3 * X[:, 0], 0.1 * X[:, 1], -0.2 * X[:, 2],
                             0.15 * X[:, 0] * X[:, 1], np.zeros(len(X))],
                            axis=1).ravel()

    for i in range(len(worst)):
        base = (record.stored_v[i] - record.L_pair[i])
        competitors = []
        for _ in range(n_probes):
            du = rng.standard_normal(space.n_u) * 0.05
            du[~space.u_free] = 0.0
            dz = rng.standard_normal(space.n_z) * 0.05
            competitors.append((record.v[i] + du, record.z[i] + dz))
        competitors += [(record.v[i] + 0.1 * prof_u, record.z[i] + prof_z),
                        (prof_u, prof_z)]
        for vb, zb in competitors:
            if p.rho == 0:
                zb = project_ball(zb.reshape(-1, 5), p.c3).ravel()
            comp = (solver.stored_energy(vb, zb)
                    - float(record.L_u[i] @ vb) - float(record.L_z[i] @ zb)
                    + solver.dissipation_increment(zb, record.z[i]))
            worst[i] = max(worst[i], base - comp)
    return EnergeticReport(worst, float(record.residual.max()),
                           float(np.abs(record.residual).max()),
                           record.grid.tau, tol, seed)


# ---------------------------------------------------------------------------
# problem bundles and studies


@dataclass
class BvpProblem:
    """Mesh/material/load bundle for the evolution studies."""

    params: MaterialParams
    program: LoadProgram
    extents: tuple = (1.0, 1.0, 1.0)
    n: int = 2
    steps: int = 8
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

    def grid(self, steps: Optional[int] = None) -> TimeGrid:
        return TimeGrid.uniform(self.program.T, self.steps if steps is None else steps)


def spacetime_run(problem: BvpProblem, rho: float, nu: float, tau: float,
                  n: int):
    """One (rho, nu, tau, h) member of the space-time approximation family.

    Returns the record plus a report with the explicit ledger-bound check;
    nu = 0 is accepted, and the report's nu_in_scope marks it as outside
    the joint-limit hypotheses.
    """
    params = replace(problem.params, rho=rho, nu=nu)
    record = run_incremental_bvp(problem.space(n), params,
                                 TimeGrid.with_step(problem.program.T, tau),
                                 problem.program)
    bound = record.apriori.total
    report = {
        "ledger_peak": record.ledger_peak,
        "ledger_bound": bound,
        "bound_ok": record.ledger_peak <= bound + 1e-6 * (1 + bound),
        "nu_in_scope": nu > 0,
    }
    return record, report


def _h1_norm(space: FeSpace, forms: StepForms, du) -> float:
    return math.sqrt(float(du @ (forms.K @ du))
                     + float(du @ (space.M @ du.reshape(-1, 3)).ravel()))


def nstep_h_convergence(problem: BvpProblem, n_list, steps: int):
    """Inter-level displacement differences under mesh refinement.

    Runs the N-step incremental problem on each mesh and reports, per time
    step, the H1-type norm of the difference between consecutive levels
    (coarse states injected into the finer space).
    """
    runs = [run_incremental_bvp(problem.space(n), problem.params,
                                problem.grid(steps), problem.program)
            for n in n_list]
    table = []
    for lev in range(len(runs) - 1):
        coarse, fine = runs[lev].solver.space, runs[lev + 1].solver.space
        P = inject(coarse, fine)
        diffs = []
        for i in range(steps + 1):
            du = (P @ runs[lev].u[i].reshape(-1, 3)).ravel() - runs[lev + 1].u[i]
            diffs.append(_h1_norm(fine, runs[lev + 1].solver.forms, du))
        table.append({"n_coarse": n_list[lev], "n_fine": n_list[lev + 1],
                      "diffs": np.array(diffs)})
    return {"runs": runs, "table": table}
