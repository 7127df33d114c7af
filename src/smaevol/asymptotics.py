"""Parameter-asymptotics studies: regularization, time step and mesh limits.

The variational-convergence certificates work through the monotone
pointwise convergence of the regularized transformation energies (the
standard sufficient condition for Gamma-convergence of convex functions),
checked exactly on sample grids.  The limit experiments run families of
discrete solutions along non-increasing parameter schedules and tabulate
state, energy and dissipation differences against a reference run:
the sharp model for a vanishing regularization parameter, a once-more
refined discretization for vanishing step size or mesh size.

An evolution study runs its reference in the calling process and its
members beside it, in forked children on the other CPUs of
os.sched_getaffinity (round-robin, at most one child per spare CPU, no
setting).  The children send back their records without the solver; the
table is formed in the caller, from the same arithmetic as a serial run.
With one CPU, no fork start method or a live thread, every member runs in
the caller after the reference.  The minimization and constitutive
studies stay serial: a minimization member is one step, and a
constitutive member takes milliseconds, less than a fork costs.
"""

import math
import multiprocessing as mp
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import (PointTrajectory, StressPath, TimeGrid,
                           _sup_state_diff, run_constitutive)
from .fem import inject
from .material import (MaterialParams, transformation_energy_sharp,
                       transformation_energy_smooth)
from .quasistatic import BvpProblem, QuasistaticSolver, spacetime_run


# schedule entries that each limit study keeps fixed
_FIXED_ENTRIES = {"constitutive": ("nu", "n"), "minproblem": ("tau",),
                  "evolution": ("nu",)}


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

    def __len__(self):
        return len(self.rho)

    def varies(self, name: str) -> bool:
        arr = getattr(self, name)
        return bool(np.ptp(arr) > 0)

    def check_study(self, study: str):
        """Raise ValueError if the schedule varies an entry the study fixes,
        or gives a study that steps in time a step tau <= 0."""
        bad = [f"the {study} study fixes {name}"
               for name in _FIXED_ENTRIES.get(study, ()) if self.varies(name)]
        if study in ("constitutive", "evolution") and np.any(self.tau <= 0):
            bad.append(f"the {study} study needs tau > 0")
        if bad:
            raise ValueError("; ".join(bad))

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
    condition: str = ("monotone pointwise convergence of convex energies "
                      "(sufficient for Gamma-convergence)")


def gamma_rhos(rhos) -> np.ndarray:
    """The rho sequence of a Gamma-family check as an array; ValueError
    unless it is nonempty and decreases strictly through positive values."""
    rhos = np.asarray(rhos, dtype=float)
    if not rhos.size or np.any(np.diff(rhos) >= 0) or np.any(rhos <= 0):
        raise ValueError("rhos must be nonempty and decrease strictly "
                         "through positive values")
    return rhos


def gamma_check_F(p: MaterialParams, rhos, points) -> GammaReport:
    """Check the monotone pointwise convergence of the regularized family.

    points is an (m, 5) array of deviators; rhos must decrease strictly
    to small positive values.  Inside the transformation ball the family
    increases to the sharp energy; outside it diverges.
    """
    rhos = gamma_rhos(rhos)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radii = np.linalg.norm(points, axis=1)
    inside = radii <= p.c3
    sharp = np.array([transformation_energy_sharp(p, z) for z in points])
    values = np.empty((len(rhos), len(points)))
    for k, rho in enumerate(rhos):
        pk = replace(p, rho=float(rho))
        values[k] = [transformation_energy_smooth(pk, z) for z in points]
    monotone = bool(np.all(values[1:] >= values[:-1]))
    below_sharp = bool(np.all(values <= np.where(np.isinf(sharp), np.inf, sharp)))
    gaps = np.array([np.max(np.abs(values[k, inside] - sharp[inside]))
                     if inside.any() else 0.0 for k in range(len(rhos))])
    outside_min = float(values[-1, ~inside].min()) if (~inside).any() else math.inf
    zeros = np.array([transformation_energy_smooth(replace(p, rho=float(r)),
                                                   np.zeros(5)) for r in rhos])
    return GammaReport(rhos, monotone and below_sharp, gaps, outside_min, zeros)


# ---------------------------------------------------------------------------
# constitutive-relation limits


def _trajectory_diffs(traj: PointTrajectory, ref: PointTrajectory):
    """(state, energy, dissipation) differences at the member's own nodes."""
    energy = max(abs(traj.stored[i] - ref.stored[ref.grid.node_index(t)])
                 for i, t in enumerate(traj.grid.nodes))
    diss = abs(traj.cum_diss[-1] - ref.cum_diss[-1])
    return _sup_state_diff(traj, ref), energy, diss


def limit_constitutive(p: MaterialParams, path: StressPath,
                       schedule: LimitSchedule):
    """Constitutive-relation limits over a (rho, tau) schedule."""
    schedule.check_study("constitutive")
    T = path.T
    rho_ref, _, tau_ref, _ = schedule.reference()
    ref = run_constitutive(replace(p, rho=rho_ref), path,
                           TimeGrid.with_step(T, tau_ref))

    def member(k):
        pk = replace(p, rho=float(schedule.rho[k]))
        traj = run_constitutive(pk, path, TimeGrid.with_step(T, schedule.tau[k]))
        state, energy, diss = _trajectory_diffs(traj, ref)
        return {"k": k, "rho": float(schedule.rho[k]), "nu": 0.0,
                "tau": float(schedule.tau[k]), "h": 0.0,
                "state_diff": state, "energy_diff": energy, "diss_diff": diss}

    rows = [member(k) for k in range(len(schedule))]
    return {"label": schedule.label, "rows": rows,
            "reference": {"rho": rho_ref, "tau": tau_ref}}


# ---------------------------------------------------------------------------
# boundary-value limits


def _bvp_state_diff(P, ref_forms, v_m, z_m, v_r, z_r):
    """Energy norm of the injected member state minus the reference state."""
    d = ((P @ v_m.reshape(-1, 3)).ravel() - v_r,
         (P @ z_m.reshape(-1, 5)).ravel() - z_r)
    return math.sqrt(max(ref_forms.energy_value(d), 0.0))


def limit_minproblem(problem: BvpProblem, schedule: LimitSchedule):
    """Single incremental minimization at t = T along a (rho, nu, h) schedule."""
    schedule.check_study("minproblem")
    rho_ref, nu_ref, _, n_ref = schedule.reference()

    def solve_member(rho, nu, n):
        space = problem.space(n)
        solver = QuasistaticSolver(space, replace(problem.params, rho=rho, nu=nu))
        anchor = np.zeros(space.n_z)
        u_dir, ell = problem.program.at(space, problem.program.T)
        v, z, _ = solver.solve_step(*solver.lifted_load(u_dir, ell), anchor)
        return solver, v, z, solver.stored_energy(v, z), \
            solver.dissipation_increment(z, anchor)

    ref_solver, v_r, z_r, w_r, d_r = solve_member(rho_ref, nu_ref, n_ref)
    ref_space, ref_forms = ref_solver.space, ref_solver.forms

    def member(k):
        solver, v, z, w, dd = solve_member(float(schedule.rho[k]),
                                           float(schedule.nu[k]),
                                           int(schedule.n[k]))
        return {"k": k, "rho": float(schedule.rho[k]),
                "nu": float(schedule.nu[k]), "tau": 0.0,
                "h": solver.space.mesh.h,
                "state_diff": _bvp_state_diff(
                    inject(solver.space, ref_space), ref_forms,
                    v, z, v_r, z_r),
                "energy_diff": abs(w - w_r),
                "diss_diff": abs(dd - d_r)}

    rows = [member(k) for k in range(len(schedule))]
    return {"label": schedule.label, "rows": rows,
            "reference": {"rho": rho_ref, "nu": nu_ref, "n": n_ref}}


def _send_share(conn, task, share):
    """A child's body: task over its share, or the exception that stopped it."""
    try:
        out = (True, [task(a) for a in share])
    except Exception as e:
        out = (False, e)
    conn.send(out)
    conn.close()


def _beside(main, task, args):
    """(main(), [task(a) for a in args]) with the tasks in forked children.

    The caller runs main while at most cpus - 1 children run the args
    round-robin, so at most cpus processes compute at once.  A forked
    child inherits the caller's state (a parsed problem, its cached
    spaces) and pickles its results back.  multiprocessing flushes stdout
    and stderr before each fork and ends each child with os._exit, so no
    buffered line is written twice.  With one CPU, no fork start method or
    a live thread (fork is unsafe then), everything runs here, main first.
    Every child is reaped before this returns or raises.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(args), (len(affinity(0)) if affinity else 1) - 1)
    if (workers < 1 or "fork" not in mp.get_all_start_methods()
            or threading.active_count() > 1):
        first = main()
        return first, [task(a) for a in args]
    ctx = mp.get_context("fork")
    children, done = [], False
    try:
        for j in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share,
                                args=(send, task, args[j::workers]),
                                daemon=True)
            with send:   # the child holds its own end
                child.start()
            children.append((child, recv))
        first = main()
        results = [None] * len(args)
        for j, (child, recv) in enumerate(children):
            try:
                ok, out = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a member process exited with code "
                                   f"{child.exitcode} and sent no result")
            if not ok:
                raise out
            results[j::workers] = out
        done = True
        return first, results
    finally:
        for child, recv in children:
            if not done:
                child.kill()
            child.join()
            recv.close()


def limit_evolution(problem: BvpProblem, schedule: LimitSchedule):
    """Space-time evolution limits along a (rho, tau, h) schedule, nu fixed.

    The reference runs in the calling process, the members beside it (see
    _beside); each row and the reference carry their run's total sweeps.
    """
    schedule.check_study("evolution")
    nu = float(schedule.nu[0])
    rho_ref, _, tau_ref, n_ref = schedule.reference()

    def member_run(k):
        rec, rep = spacetime_run(problem, float(schedule.rho[k]), nu,
                                 float(schedule.tau[k]), int(schedule.n[k]))
        return replace(rec, solver=None), rep   # SuperLU factors do not pickle

    (ref, ref_rep), runs = _beside(
        lambda: spacetime_run(problem, rho_ref, nu, tau_ref, n_ref),
        member_run, range(len(schedule)))
    ref_forms = ref.solver.forms

    def row(k, rec, rep):
        space = problem.space(int(schedule.n[k]))
        P = inject(space, ref.solver.space)
        state = 0.0
        energy = 0.0
        for i, t in enumerate(rec.grid.nodes):
            j = ref.grid.node_index(t)
            state = max(state, _bvp_state_diff(P, ref_forms,
                                               rec.v[i], rec.z[i],
                                               ref.v[j], ref.z[j]))
            energy = max(energy, abs(rec.stored_v[i] - ref.stored_v[j]))
        return {"k": k, "rho": float(schedule.rho[k]), "nu": nu,
                "tau": float(schedule.tau[k]), "h": space.mesh.h,
                "state_diff": state, "energy_diff": energy,
                "diss_diff": abs(rec.cum_diss[-1] - ref.cum_diss[-1]),
                "ledger_bound_ok": rep["bound_ok"],
                "nu_in_scope": rep["nu_in_scope"],
                "sweeps": int(rec.sweeps.sum())}

    rows = [row(k, *run) for k, run in enumerate(runs)]
    return {"label": schedule.label, "rows": rows,
            "reference": {"rho": rho_ref, "nu": nu, "tau": tau_ref, "n": n_ref,
                          "ledger_bound_ok": ref_rep["bound_ok"],
                          "nu_in_scope": ref_rep["nu_in_scope"],
                          "sweeps": int(ref.sweeps.sum())}}
