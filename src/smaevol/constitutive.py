"""Stress-driven incremental evolution of the constitutive relation.

Given a piecewise-linear-in-time stress history, each time step solves the
incremental minimization for the pair (strain, transformation strain).
The strain is eliminated analytically: minimizing over it at fixed z gives
eps = C^-1 sigma + z, and the remaining 5-dimensional problem in z is

    F(z) - sigma_dev : z + R |z - z_prev|

which the proximal kernel solves.  A run has three stages: the stress and
its deviator at every grid node in one array pass each, a time loop that
only runs the exact kernel on each node's z-problem, anchored at the
previous node's z, and then the check of every step and the strains and
the per-node energy ledger (stored energy, dissipation, external work) for
all nodes at once.  The ledger is exact for the
right-continuous piecewise-constant state interpolant, so the discrete
one-sided energy inequality is a computable statement, not a quadrature
approximation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .material import (MaterialParams, stored_energy_density,
                       transformation_energy_sharp)
from .proxsolve import (STABILITY_TOL, NonConvergence, PointProblem,
                        point_path, point_residuals, project_ball,
                        residual_error, solve_point)
from .tensors import dev_split, dev_to_sym, inner, norm


class UnstableInitialState(Exception):
    """Initial state violates the stability condition beyond tolerance."""


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
            raise ValueError("time nodes must be strictly increasing with N >= 1")

    @classmethod
    def uniform(cls, T: float, steps: int) -> "TimeGrid":
        return cls(np.linspace(0.0, T, steps + 1))

    @classmethod
    def with_step(cls, T: float, tau: float) -> "TimeGrid":
        """The uniform grid on [0, T] with max(1, round(T / tau)) steps."""
        return cls.uniform(T, max(1, int(round(T / tau))))

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    def node_indices(self, ts) -> np.ndarray:
        """Index of the node at each time of ts (to a relative 1e-9), the
        nearest one (the first of two as near), in one pass; ValueError
        naming the first time no node is at, so a table never compares
        states at two times."""
        ts = np.asarray(ts, dtype=float)
        nodes = self.nodes
        j = np.clip(np.searchsorted(nodes, ts), 1, len(nodes) - 1)
        j -= np.abs(nodes[j - 1] - ts) <= np.abs(nodes[j] - ts)
        off = ~(np.abs(nodes[j] - ts) <= 1e-9 * max(1.0, nodes[-1]))
        if off.any():
            raise ValueError(f"t = {ts[off][0]:g} is not a node of the grid")
        return j


@dataclass(frozen=True)
class StressPath:
    """Continuous piecewise-linear stress history on [0, T]."""

    times: np.ndarray
    values: np.ndarray  # (m, 6) symmetric tensors at the breakpoints

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if len(t) < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if v.shape != (len(t), 6):
            raise ValueError("need one 6-component tensor per breakpoint")

    @classmethod
    def proportional(cls, direction, amplitudes, times) -> "StressPath":
        direction = np.asarray(direction, dtype=float)
        amps = np.asarray(amplitudes, dtype=float)
        return cls(np.asarray(times, dtype=float), np.outer(amps, direction))

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def at(self, ts) -> np.ndarray:
        """The stress at each time of ts (clamped to [t0, T]), an (N, 6)
        array, in one array pass; each row is (1 - w) v_j + w v_{j+1} on
        the time's segment j."""
        t = np.clip(np.asarray(ts, dtype=float), self.times[0], self.times[-1])
        i = np.minimum(np.searchsorted(self.times, t, side="right") - 1,
                       len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = ((t - t0) / (t1 - t0))[:, None]
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def value(self, t: float) -> np.ndarray:
        """The stress at the one time t."""
        return self.at([t])[0]


@dataclass
class PointState:
    eps: np.ndarray
    z: np.ndarray


@dataclass
class PointTrajectory:
    grid: TimeGrid
    eps: np.ndarray          # (N+1, 6)
    z: np.ndarray            # (N+1, 5)
    stored: np.ndarray       # W(eps_i, z_i)
    cum_diss: np.ndarray
    work: np.ndarray         # integral of sigma_dot : eps up to t_i (exact)
    residual: np.ndarray     # one-sided energy balance residual per node

    def state(self, i: int) -> PointState:
        return PointState(self.eps[i].copy(), self.z[i].copy())


def reduced_problem(p: MaterialParams, sigma, z_prev) -> PointProblem:
    """The z-only incremental problem after eliminating the strain."""
    b = dev_split(sigma)[0]
    anchor = np.asarray(z_prev, dtype=float)
    if p.rho > 0:
        return PointProblem(b, p.c2, p.R, anchor, core=p)
    if math.isinf(transformation_energy_sharp(p, anchor)):
        raise ValueError("anchor must satisfy |z_prev| <= c3 when rho = 0")
    return PointProblem(b, p.c2, p.R, anchor, w_zero=p.c1, radius=p.c3)


def strain(p: MaterialParams, sigma, z) -> np.ndarray:
    """The strain eps = C^-1 sigma + z that minimizes the step at fixed z,
    of one state or of each row of (N, 6) and (N, 5) stacks."""
    return p.elastic.apply_inverse(sigma) + dev_to_sym(z)


def incremental_step(p: MaterialParams, sigma, z_prev) -> PointState:
    """Exact minimizer of the step functional at the given stress."""
    z = solve_point(reduced_problem(p, sigma, z_prev))
    return PointState(strain(p, sigma, z), z)


def stability_residual(p: MaterialParams, sigma, state) -> float:
    """Stability defect of (eps, z) at the given stress: the strain residual
    |C(eps - z) - sigma| plus the positive part of the one-row
    point_residuals of the step anchored at z itself (z is stable exactly
    when it solves that step); inf for a sharp z outside the transformation
    ball."""
    eps = np.asarray(state.eps, dtype=float)
    z = np.asarray(state.z, dtype=float)
    if p.rho == 0 and math.isinf(transformation_energy_sharp(p, z)):
        return math.inf
    r_eps = norm(p.elastic.apply(eps - dev_to_sym(z)) - np.asarray(sigma, dtype=float))
    pb = reduced_problem(p, sigma, z)
    r_z = point_residuals(pb, pb.b[None], z[None], z[None])[1][0]
    return float(r_eps + max(0.0, r_z))


@dataclass
class StabilityReport:
    worst_violation: float
    analytic_residual: float

    @property
    def passed(self) -> bool:
        return max(self.worst_violation, self.analytic_residual) <= STABILITY_TOL


def _ball(rng, dim, radius):
    u = rng.standard_normal(dim)
    u /= norm(u)
    return u * radius * rng.uniform() ** (1.0 / dim)


def verify_stability(p: MaterialParams, sigma, state,
                     n_probes=200, seed=0) -> StabilityReport:
    """Probe the global stability inequality with random competitors.

    Competitors are drawn within radius 2 c3 of the state; in the sharp
    case the competitor z is clamped into the transformation ball so the
    probe is informative (outside it the inequality holds trivially).  The
    competitors' energies are one stack call.
    """
    if n_probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.Generator(np.random.Philox(seed))
    sigma = np.asarray(sigma, dtype=float)
    base = stored_energy_density(p, state.eps, state.z) - inner(sigma, state.eps)
    # probe by probe, a strain offset and then a z offset from the stream
    d_eps, d_z = map(np.array, zip(*[(_ball(rng, 6, 2.0 * p.c3),
                                      _ball(rng, 5, 2.0 * p.c3))
                                     for _ in range(n_probes)]))
    eps_c, z_c = state.eps + d_eps, state.z + d_z
    if p.rho == 0:
        z_c = project_ball(z_c, p.c3)
    dz = z_c - state.z
    comp = (stored_energy_density(p, eps_c, z_c) - inner(eps_c, sigma)
            + p.R * np.sqrt(inner(dz, dz)))
    return StabilityReport(float(np.max(base - comp)),
                           stability_residual(p, sigma, state))


def checked_initial_state(p: MaterialParams, sigma0) -> PointState:
    """The elastic equilibrium at sigma0, eps0 = C^-1 sigma0 at z = 0 (+ 0,
    which turns a -0 strain component into 0), after checking that it is
    stable at sigma0; UnstableInitialState otherwise.  At sigma0 = 0 every
    term of the step is >= 0 and vanishes at (0, 0): no check is needed."""
    z = np.zeros(5)
    init = PointState(strain(p, sigma0, z), z)
    if not np.any(sigma0):
        return init
    comp0 = stored_energy_density(p, init.eps, init.z) - float(np.asarray(sigma0) @ init.eps)
    res = stability_residual(p, sigma0, init)
    bound = STABILITY_TOL * (1.0 + abs(comp0))
    if res > bound:
        raise UnstableInitialState(
            f"initial state violates the stability condition at t = 0 "
            f"(stability residual {res:.2e}, bound {bound:.2e})")
    return init


def run_constitutive(p: MaterialParams, path: StressPath,
                     grid: TimeGrid) -> PointTrajectory:
    """Incremental evolution along the grid, with the exact energy ledger.

    Three stages: the stress and its deviatoric load b_i at every node (an
    array pass each; dev_split gives b_i the bits of the step's own); the
    time loop, after the start check, which is one point_path call: the
    exact step alone, z_i from b_i and z_{i-1}, on floats, the anchor's
    plane kept across the steps stuck at it; then every step's check at
    once (_check_steps), the strains eps = C^-1 sigma + z, the stored
    energy, the dissipation increments R |z_i - z_{i-1}|, the work and the
    balance residual for all nodes.
    """
    sig = path.at(grid.nodes)
    checked_initial_state(p, sig[0])
    loads = dev_split(sig)[0]
    pb = reduced_problem(p, sig[0], np.zeros(5))  # every step's constants
    z = np.zeros((grid.steps + 1, 5))
    z[1:] = point_path(pb, loads[1:], z[0], [])
    _check_steps(p, pb, loads, z, grid.nodes)

    eps = strain(p, sig, z)
    stored = stored_energy_density(p, eps, z)
    comp = stored - inner(sig, eps)
    dz = np.diff(z, axis=0)
    cum = np.cumsum(np.r_[0.0, p.R * np.sqrt(inner(dz, dz))])
    # exact for piecewise-linear sigma against the piecewise-constant
    # right-continuous strain interpolant
    work = np.cumsum(np.r_[0.0, inner(np.diff(sig, axis=0), eps[:-1])])
    residual = (comp + cum) - (comp[0] - work)
    return PointTrajectory(grid, eps, z, stored, cum, work, residual)


def _check_steps(p, pb, loads, z, times):
    """Check every step of a run at once, in the order the steps ran: step
    i's anchor z[i-1] against the sharp ball (reduced_problem's test), then
    z[i] by point_residuals under loads[i].  The first step that fails
    raises ValueError or NonConvergence with its time; a residual also with
    its bound and the Newton trail of the step solved again."""
    i, res, bound = point_residuals(pb, loads[1:], z[1:], z[:-1])
    last = len(z) - 1 if i is None else i + 1   # steps 1..last ran before it
    if p.rho == 0:
        out = np.isinf(transformation_energy_sharp(p, z[:last]))  # anchors
        if out.any():
            j = int(np.argmax(out)) + 1
            raise ValueError(f"step {j} at t = {times[j]:g}: anchor must "
                             f"satisfy |z_prev| <= c3 when rho = 0")
    if i is not None:
        trail = []
        point_path(pb, loads[last:last + 1], z[last - 1], trail)
        raise NonConvergence(f"step {last} at t = {times[last]:g}: "
                             f"{residual_error(res[i], bound[i], trail)}")


def rate_study_steps(p: MaterialParams, T, taus, reference_tau=None):
    """Sorted taus and reference step of a rate study on [0, T] (min(taus)/8
    unless given); ValueError unless rho, taus > 0, reference_tau <= min/8
    and every tau's grid nests in the reference grid (check_nested)."""
    taus = sorted(float(t) for t in taus)
    bad = [] if p.rho > 0 else ["temporal rate study requires rho > 0"]
    if not taus or taus[0] <= 0:
        bad.append("taus must be positive step sizes")
    elif reference_tau is None:
        reference_tau = taus[0] / 8.0
    elif not 0 < reference_tau <= taus[0] / 8.0 + 1e-15:
        bad.append("reference tau must be in (0, min(taus)/8]")
    if bad:
        raise ValueError("; ".join(bad))
    check_nested(T, taus, reference_tau)
    return taus, reference_tau


def check_nested(T, taus, reference_tau):
    """ValueError naming the first tau whose grid on [0, T] has a node the
    reference tau's grid lacks (a table compares states at shared nodes):
    a uniform grid of N steps nests in one of M steps when N divides M."""
    steps = TimeGrid.with_step(T, reference_tau).steps
    for tau in taus:
        if steps % TimeGrid.with_step(T, tau).steps:
            raise ValueError(f"the tau {tau:g} grid does not nest in the "
                             f"reference tau {reference_tau:g} grid")


@dataclass
class DependenceReport:
    rows: list

    @property
    def all_ok(self) -> bool:
        return all(r["ok"] for r in self.rows)


def continuous_dependence_check(p: MaterialParams, pairs,
                                slack=1e-8) -> DependenceReport:
    """Check the single-step continuous dependence estimate on data pairs.

    Each pair is ((sigma1, z_prev1), (sigma2, z_prev2)); the asserted bound
    is |eps1-eps2|^2 + |z1-z2|^2 <= (1/alpha^2)|sigma1-sigma2|^2
    + (4/alpha) R |z_prev1 - z_prev2| + slack, with alpha the uniform
    convexity constant of the stored density.
    """
    a = p.alpha
    rows = []
    for (s1, zb1), (s2, zb2) in pairs:
        st1 = incremental_step(p, s1, zb1)
        st2 = incremental_step(p, s2, zb2)
        lhs = float(np.sum((st1.eps - st2.eps) ** 2) + np.sum((st1.z - st2.z) ** 2))
        rhs = (float(np.sum((np.asarray(s1) - np.asarray(s2)) ** 2)) / a ** 2
               + 4.0 / a * (p.R * norm(np.asarray(zb1, dtype=float)
                                        - np.asarray(zb2, dtype=float)))
               + slack)
        rows.append({"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs})
    return DependenceReport(rows)
