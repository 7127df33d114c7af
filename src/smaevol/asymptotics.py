"""Parameter-asymptotics studies: regularization, time step and mesh limits.

The variational-convergence certificates work through the monotone
pointwise convergence of the regularized transformation energies (the
standard sufficient condition for Gamma-convergence of convex functions).
Both densities read only |z|, so gamma_check_F checks it exactly on the
radii of gamma_radii, through material's own densities.

Five studies tabulate discrete solutions against a reference run: the
sharp model for a vanishing regularization parameter, a once-more refined
discretization for a vanishing step or mesh size.  conv-tau runs
temporal_error_study, conv-rho limit_constitutive, and bvp-conv
limit_minproblem, limit_evolution or nstep_h_convergence (whose reference
is its finest level).  Each checks its schedule first
(LimitSchedule.check_study), runs its reference in the calling process and
builds one row per member.  The BVP members run beside the reference
through _beside, on a fork-context process pool with one worker per spare
CPU of os.sched_getaffinity, and return their records without the solver;
the rows are those of a serial run, bit for bit.  The constitutive members run
after the reference in the caller.  On a 2-CPU host, forking made the BVP
studies faster (the study documents of tests/pool_artifacts.py, 44, 24 and
24 alternating pairs, medians serial -> forked: minproblem over rho 261 ->
210 ms, over h 149 -> 109 ms, nstep-h 344 -> 245 ms) and the constitutive
studies slower (8 point directions x 3 repeats: conv-tau 142.9 -> 154.5 ms,
conv-rho 8.2 -> 17.7 ms).  The BVP studies import fem and quasistatic when
they run, not with this module: every run imports it, and those two modules
bring scipy.sparse, which no point run calls.
"""

import math
import multiprocessing as mp
import os
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constitutive import (PointTrajectory, StressPath, TimeGrid,
                           check_nested, rate_study_steps, run_constitutive)
from .material import (RHO_FLOOR, MaterialParams, transformation_energy_sharp,
                       transformation_energy_smooth)


# schedule entries that each limit study keeps fixed
_FIXED_ENTRIES = {"constitutive": ("nu", "n"), "minproblem": ("tau",),
                  "evolution": ("nu",), "nstep-h": ("rho", "nu", "tau")}


@dataclass(frozen=True)
class LimitSchedule:
    """Non-increasing parameter sequences, one entry per study member.

    h is parametrized by the mesh subdivision count n (h ~ 1/n), so the
    n sequence must be non-decreasing.
    """

    rho: np.ndarray
    nu: np.ndarray
    tau: np.ndarray
    n: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name in ("rho", "nu", "tau", "n"):
            object.__setattr__(self, name, np.asarray(
                getattr(self, name), dtype=int if name == "n" else float))
        if len({len(self.rho), len(self.nu), len(self.tau), len(self.n)}) != 1 \
                or not len(self.n):
            raise ValueError("schedule sequences must share one length >= 1")
        bad = []
        if np.any(np.diff(self.rho) > 0) or np.any(np.diff(self.nu) > 0) \
                or np.any(np.diff(self.tau) > 0):
            bad.append("rho, nu, tau sequences must be non-increasing")
        if np.any(self.rho < 0) or np.any(self.nu < 0):
            bad.append("rho and nu must be >= 0")
        if np.any((self.rho > 0) & (self.rho < RHO_FLOOR)):
            bad.append(f"rho must be 0 or >= {RHO_FLOOR:.2g}")
        if np.any(np.diff(self.n) < 0):
            bad.append("mesh subdivisions must be non-decreasing")
        if np.any(self.n < 1):
            bad.append("mesh subdivisions must be >= 1")
        if bad:
            raise ValueError("; ".join(bad))

    @classmethod
    def of(cls, length: int, rho=0.1, nu=0.0, tau=0.125, n=2, label=""):
        bcast = lambda v: np.full(length, v) if np.ndim(v) == 0 else np.asarray(v)
        return cls(bcast(rho), bcast(nu), bcast(tau), bcast(n), label)

    def varies(self, name: str) -> bool:
        arr = getattr(self, name)
        return bool(np.ptp(arr) > 0)

    def check_study(self, study: str, T: float):
        """Raise ValueError if the schedule varies an entry the study fixes
        or, for a study that steps in time on [0, T] (all but minproblem),
        has a tau <= 0 or a member grid that does not nest in the
        reference grid."""
        bad = [f"the {study} study fixes {name}"
               for name in _FIXED_ENTRIES[study] if self.varies(name)]
        if study != "minproblem" and np.any(self.tau <= 0):
            bad.append(f"the {study} study needs tau > 0")
        elif study != "minproblem":
            try:
                check_nested(T, self.tau, self.reference()[2])
            except ValueError as e:
                bad.append(str(e))
        if bad:
            raise ValueError("; ".join(bad))

    def members(self):
        """(rho, nu, tau, n) of each member, as Python numbers."""
        return list(zip(self.rho.tolist(), self.nu.tolist(),
                        self.tau.tolist(), self.n.tolist()))

    def reference(self):
        """Reference (rho, nu, tau, n): the sharp model for a vanishing
        rho/nu, a doubled discretization for vanishing tau/h, constants
        otherwise."""
        rho = 0.0 if self.varies("rho") else float(self.rho[-1])
        nu = 0.0 if self.varies("nu") else float(self.nu[-1])
        tau = float(self.tau[-1]) / 2.0 if self.varies("tau") \
            else float(self.tau[-1])
        n = 2 * int(self.n[-1]) if self.varies("n") else int(self.n[-1])
        return rho, nu, tau, n


# ---------------------------------------------------------------------------
# pointwise Gamma-family diagnostics


@dataclass
class GammaReport:
    rhos: np.ndarray
    monotone_exact: bool
    inside_gaps: np.ndarray       # per member, max |F_rho - F_sharp| inside
    outside_min_last: float       # min F over outside points at the last rho
    zero_values: np.ndarray       # F_rho(0) per member


def gamma_rhos(rhos) -> np.ndarray:
    """The rho sequence of a Gamma-family check as an array; ValueError
    unless it is nonempty and decreases strictly through RHO_FLOOR or more."""
    rhos = np.asarray(rhos, dtype=float)
    if not rhos.size or np.any(np.diff(rhos) >= 0) or np.any(rhos < RHO_FLOOR):
        raise ValueError("rhos must be nonempty and decrease strictly "
                         f"through values >= {RHO_FLOOR:.2g}")
    return rhos


def gamma_radii(p: MaterialParams, inside: int, outside: int) -> np.ndarray:
    """The sorted distinct radii of a Gamma-family check: grids in [0, c3]
    and [1.2 c3, 2 c3] and the penalty's breakpoints c3 + (0, 1, 2) delta."""
    return np.unique(np.r_[np.linspace(0.0, p.c3, inside),
                           np.linspace(1.2 * p.c3, 2.0 * p.c3, outside),
                           p.c3 + p.delta * np.arange(3.0)])


def gamma_check_F(p: MaterialParams, rhos, radii) -> GammaReport:
    """Check the monotone pointwise convergence of the regularized family
    on radii r >= 0, each at r e1 (whose norm is r exactly); rhos must
    decrease strictly to small positive values.  Inside the transformation
    ball the family increases to the sharp energy; outside it diverges.
    """
    rhos = gamma_rhos(rhos)
    radii = np.asarray(radii, dtype=float)
    points, inside = radii[:, None] * np.eye(5)[0], radii <= p.c3
    sharp = transformation_energy_sharp(p, points)
    values = np.array([transformation_energy_smooth(replace(p, rho=rho), points)
                       for rho in rhos.tolist()])
    monotone = bool(np.all(values[1:] >= values[:-1])
                    and np.all(values <= sharp))
    gaps = np.array([np.max(np.abs(values[k, inside] - sharp[inside]))
                     if inside.any() else 0.0 for k in range(len(rhos))])
    outside_min = float(values[-1, ~inside].min()) if (~inside).any() else math.inf
    zeros = np.array([transformation_energy_smooth(replace(p, rho=rho),
                                                   np.zeros(5))
                      for rho in rhos.tolist()])
    return GammaReport(rhos, monotone, gaps, outside_min, zeros)


# ---------------------------------------------------------------------------
# the run path: a reference, members beside it, a row per member


def _adopt(task, args):
    """A member process's initializer: under fork, task and args are
    inherited, not pickled, so a study's closures serve as they are."""
    global _study
    _study = task, args


def _member(i):
    return _study[0](_study[1][i])


def _beside(main, task, args):
    """(main(), [task(a) for a in args]) with the tasks in forked processes.

    The caller runs main while a fork-context process pool of at most
    cpus - 1 workers runs the args, so at most cpus processes compute at
    once.  A worker inherits the caller's state (a parsed problem, its
    cached spaces) and pickles its results back; a task's exception is
    raised here, and a worker that dies raises BrokenProcessPool.
    multiprocessing flushes stdout and stderr before each fork and ends
    each worker with os._exit, so no buffered line is written twice.  With
    one CPU, no fork start method or a live thread (fork is unsafe then),
    everything runs here, main first.  Every worker is joined before this
    returns or raises.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(args), (len(affinity(0)) if affinity else 1) - 1)
    if (workers < 1 or "fork" not in mp.get_all_start_methods()
            or threading.active_count() > 1):
        first = main()
        return first, [task(a) for a in args]
    # a lazy import: only a BVP study forks, but every run imports this module
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp.get_context("fork"),
                             initializer=_adopt,
                             initargs=(task, args)) as pool:
        results = pool.map(_member, range(len(args)))
        first = main()
        return first, list(results)


def _rows(compare, runs):
    """One table row per member run: compare(k, run) after the index k."""
    return [{"k": k, **compare(k, run)} for k, run in enumerate(runs)]


# ---------------------------------------------------------------------------
# constitutive studies


@dataclass
class RateStudy:
    taus: np.ndarray
    errors: np.ndarray
    order: Optional[float]
    degenerate: bool
    reference_tau: float


def _point_run(p: MaterialParams, path: StressPath, tau) -> PointTrajectory:
    return run_constitutive(p, path, TimeGrid.with_step(path.T, tau))


def _sup_state_diff(traj: PointTrajectory, ref: PointTrajectory) -> float:
    """Sup over the coarse grid nodes of the state difference.

    Comparing at shared nodes (the reference grid refines the coarse one)
    measures the discrete solution error itself; comparing the interpolants
    between nodes would add the O(tau) interpolation offset even for runs
    that are exact at the nodes.
    """
    j = ref.grid.node_indices(traj.grid.nodes)
    return float(np.max(np.sqrt(np.sum((traj.eps - ref.eps[j]) ** 2, axis=1)
                                + np.sum((traj.z - ref.z[j]) ** 2, axis=1))))


def temporal_error_study(p: MaterialParams, path: StressPath,
                         taus, reference_tau=None) -> RateStudy:
    """Self-convergence study against a fine reference grid.

    Restricted to the smooth regularization (rho > 0), where the order-1/2
    a priori bound applies; the fitted order is the least-squares slope of
    the sup-in-time state error against the step size.
    """
    taus, reference_tau = rate_study_steps(p, path.T, taus, reference_tau)
    ref = _point_run(p, path, reference_tau)
    trajs = [_point_run(p, path, tau) for tau in taus]
    errs = np.array([_sup_state_diff(traj, ref) for traj in trajs])
    degenerate = bool(errs.max() < 1e-12)
    order = None
    if len(taus) >= 2 and not degenerate:
        order = float(np.polyfit(np.log(taus), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return RateStudy(np.array(taus), errs, order, degenerate, reference_tau)


def limit_constitutive(p: MaterialParams, path: StressPath,
                       schedule: LimitSchedule):
    """Constitutive-relation limits over a (rho, tau) schedule."""
    schedule.check_study("constitutive", path.T)
    rho_ref, _, tau_ref, _ = schedule.reference()
    members = schedule.members()
    ref = _point_run(replace(p, rho=rho_ref), path, tau_ref)
    trajs = [_point_run(replace(p, rho=m[0]), path, m[2]) for m in members]

    def compare(k, traj):
        j = ref.grid.node_indices(traj.grid.nodes)
        energy = float(np.max(np.abs(traj.stored - ref.stored[j])))
        return {"rho": members[k][0], "nu": 0.0, "tau": members[k][2],
                "h": 0.0, "state_diff": _sup_state_diff(traj, ref),
                "energy_diff": energy,
                "diss_diff": abs(traj.cum_diss[-1] - ref.cum_diss[-1])}

    return {"rows": _rows(compare, trajs),
            "reference": {"rho": rho_ref, "tau": tau_ref}}


# ---------------------------------------------------------------------------
# boundary-value studies


def _bvp_state_diff(P, ref_forms, v_m, z_m, v_r, z_r):
    """Energy norm of the injected member state minus the reference state."""
    d = ((P @ v_m.reshape(-1, 3)).ravel() - v_r,
         (P @ z_m.reshape(-1, 5)).ravel() - z_r)
    return math.sqrt(max(ref_forms.energy_value(d), 0.0))


def minproblem_time(problem: "BvpProblem", n: int) -> float:
    """The program's end T, where a minproblem study solves; ValueError if
    its load data vanish there on the n-cell space, the load and the lifting
    on the Dirichlet dofs (each run would solve for the zero state)."""
    space, T = problem.space(n), problem.program.T
    u_dir, ell = problem.program.at(space, T)
    if not (ell.any() or u_dir[~space.u_free].any()):
        raise ValueError(f"the loads vanish at t = T = {T:g}, where the "
                         f"minproblem study solves")
    return T


def limit_minproblem(problem: "BvpProblem", schedule: LimitSchedule):
    """Single incremental minimization at t = T along a (rho, nu, h) schedule."""
    from .fem import inject
    from .quasistatic import QuasistaticSolver
    schedule.check_study("minproblem", problem.program.T)
    rho_ref, nu_ref, _, n_ref = schedule.reference()
    T = minproblem_time(problem, n_ref)
    members = schedule.members()

    def solve(rho, nu, n):
        space = problem.space(n)
        solver = QuasistaticSolver(space, replace(problem.params, rho=rho, nu=nu))
        anchor = np.zeros(space.n_z)
        u_dir, ell = problem.program.at(space, T)
        v, z, _ = solver.solve_step(*solver.lifted_load(u_dir, ell), anchor)
        return solver.forms, v, z, solver.stored_energy(v, z), \
            solver.dissipation_increment(z, anchor)

    (ref_forms, v_r, z_r, w_r, d_r), runs = _beside(
        lambda: solve(rho_ref, nu_ref, n_ref),
        lambda m: solve(m[0], m[1], m[3])[1:], members)

    def compare(k, run):
        (v, z, w, dd), (rho, nu, _, n) = run, members[k]
        space = problem.space(n)
        return {"rho": rho, "nu": nu, "tau": 0.0, "h": space.mesh.h,
                "state_diff": _bvp_state_diff(inject(space, ref_forms.space),
                                              ref_forms, v, z, v_r, z_r),
                "energy_diff": abs(w - w_r), "diss_diff": abs(dd - d_r)}

    return {"rows": _rows(compare, runs),
            "reference": {"rho": rho_ref, "nu": nu_ref, "n": n_ref}}


def limit_evolution(problem: "BvpProblem", schedule: LimitSchedule):
    """Space-time evolution limits along a (rho, tau, h) schedule, nu fixed;
    each row and the reference carry their run's total sweeps."""
    from .fem import inject
    from .quasistatic import spacetime_run
    schedule.check_study("evolution", problem.program.T)
    rho_ref, nu, tau_ref, n_ref = schedule.reference()
    members = schedule.members()

    def member(m):   # without the solver: SuperLU factors do not pickle
        return replace(spacetime_run(problem, *m), solver=None)

    ref, runs = _beside(lambda: spacetime_run(problem, rho_ref, nu, tau_ref,
                                              n_ref), member, members)
    ref_forms = ref.solver.forms

    def compare(k, rec):
        rho, _, tau, n = members[k]
        space = problem.space(n)
        P = inject(space, ref_forms.space)
        state = energy = 0.0
        for i, j in enumerate(ref.grid.node_indices(rec.grid.nodes).tolist()):
            state = max(state, _bvp_state_diff(P, ref_forms,
                                               rec.v[i], rec.z[i],
                                               ref.v[j], ref.z[j]))
            energy = max(energy, abs(rec.stored_v[i] - ref.stored_v[j]))
        return {"rho": rho, "nu": nu, "tau": tau, "h": space.mesh.h,
                "state_diff": state, "energy_diff": energy,
                "diss_diff": abs(rec.cum_diss[-1] - ref.cum_diss[-1]),
                "ledger_bound_ok": rec.bound_ok, "nu_in_scope": nu > 0,
                "sweeps": int(rec.sweeps.sum())}

    return {"rows": _rows(compare, runs),
            "reference": {"rho": rho_ref, "nu": nu, "tau": tau_ref, "n": n_ref,
                          "ledger_bound_ok": ref.bound_ok,
                          "nu_in_scope": nu > 0,
                          "sweeps": int(ref.sweeps.sum())}}


def nstep_h_convergence(problem: "BvpProblem", schedule: LimitSchedule):
    """Inter-level displacement differences under mesh refinement.

    Runs every mesh level n of the schedule at its fixed (rho, nu, tau) and
    reports, per time step, the H1-type norm of the difference between
    consecutive levels (coarse states injected into the finer space), with
    the finer level's K.  The finest level is the reference, and the only
    record in "runs" (coarsest first) that keeps its solver.
    """
    from .fem import inject
    from .quasistatic import spacetime_run
    schedule.check_study("nstep-h", problem.program.T)
    levels = schedule.members()

    def level(m):   # without the solver: SuperLU factors do not pickle
        rec = spacetime_run(problem, *m)
        return replace(rec, solver=None), rec.solver.forms.K

    ref, runs = _beside(lambda: spacetime_run(problem, *levels[-1]),
                        level, levels[:-1])
    recs, Ks = map(list, zip(*runs, (ref, ref.solver.forms.K)))

    def entry(k):
        n_c, n_f = levels[k][3], levels[k + 1][3]
        fine = problem.space(n_f)
        P, K = inject(problem.space(n_c), fine), Ks[k + 1]
        dus = [(P @ u_c.reshape(-1, 3)).ravel() - u_f
               for u_c, u_f in zip(recs[k].u, recs[k + 1].u)]
        return {"n_coarse": n_c, "n_fine": n_f, "diffs": np.array(
            [math.sqrt(float(du @ (K @ du)) + float(
                du @ (fine.M @ du.reshape(-1, 3)).ravel())) for du in dus])}

    return {"runs": recs, "table": [entry(k) for k in range(len(runs))]}
