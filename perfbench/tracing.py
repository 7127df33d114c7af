"""Traced mode: spans and counts around the public callables of each module.

Nothing in ``src/`` is edited.  Each target function is wrapped where its
call sites look it up: every ``smaevol`` module attribute bound to the
function object (and ``scipy.sparse.linalg.splu``) is replaced while the
tracer is installed, and class methods are replaced on the class.  A span
records (name, start, end, parent span, operation id); a layer's self time
is its spans' durations minus the time their child spans cover.  Hot
inner callables (the nodal and point prox, the point step) are counted
only, to keep the tracing overhead small.
"""

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# (span name, module, attribute path, "span" | "count")
TARGETS = (
    ("scenario.parse", "smaevol.scenario", "parse_scenario", "span"),
    ("cli.run_scenario", "smaevol.cli", "run_scenario", "span"),
    ("cli.write", "smaevol.cli", "write_csv", "span"),
    ("cli.write", "smaevol.fem", "dump_fields", "span"),
    ("fem.box_mesh", "smaevol.fem", "box_mesh", "span"),
    ("fem.build_space", "smaevol.fem", "build_space", "span"),
    ("fem.assemble_forms", "smaevol.fem", "assemble_forms", "span"),
    ("fem.inject", "smaevol.fem", "inject", "span"),
    ("quasistatic.solver_init", "smaevol.quasistatic",
     "QuasistaticSolver.__init__", "span"),
    ("quasistatic.lu_factor", "scipy.sparse.linalg", "splu", "span"),
    ("quasistatic.run", "smaevol.quasistatic", "run_incremental_bvp", "span"),
    ("quasistatic.solve_step", "smaevol.quasistatic",
     "QuasistaticSolver.solve_step", "span"),
    ("quasistatic.verify", "smaevol.quasistatic", "verify_energetic", "span"),
    ("proxsolve.solve_field", "smaevol.proxsolve", "solve_field", "span"),
    ("proxsolve.prox_nodal", "smaevol.proxsolve", "prox_nodal", "count"),
    ("proxsolve.solve_point", "smaevol.proxsolve", "solve_point", "span"),
    ("proxsolve.prox_nonsmooth", "smaevol.proxsolve", "prox_nonsmooth", "count"),
    ("constitutive.run", "smaevol.constitutive", "run_constitutive", "span"),
    ("constitutive.point_step", "smaevol.constitutive", "incremental_step",
     "count"),
    ("constitutive.verify_stability", "smaevol.constitutive",
     "verify_stability", "span"),
    ("asymptotics.limit", "smaevol.asymptotics", "limit_constitutive", "span"),
    ("asymptotics.limit", "smaevol.asymptotics", "limit_evolution", "span"),
    ("asymptotics.limit", "smaevol.asymptotics", "limit_minproblem", "span"),
    ("asymptotics.member", "smaevol.quasistatic", "spacetime_run", "span"),
    ("asymptotics.gamma", "smaevol.asymptotics", "gamma_check_F", "span"),
)

# per-layer metric name -> (unit, better), in the order they are reported
PER_LAYER = {
    "scenario.parse_s": ("s", "lower"),
    "cli.run_scenario_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.output_drift": ("ratio", "lower"),
    "cli.csv_identical": ("count", "higher"),
    "fem.box_mesh_s": ("s", "lower"),
    "fem.build_space_s": ("s", "lower"),
    "fem.assemble_forms_s": ("s", "lower"),
    "fem.assemble_forms_calls": ("count", "lower"),
    "fem.inject_s": ("s", "lower"),
    "fem.inject_calls": ("count", "lower"),
    "quasistatic.solver_init_s": ("s", "lower"),
    "quasistatic.solver_inits": ("count", "lower"),
    "quasistatic.solver_reuse": ("ratio", "higher"),
    "quasistatic.lu_factor_s": ("s", "lower"),
    "quasistatic.lu_factors": ("count", "lower"),
    "quasistatic.run_self_s": ("s", "lower"),
    "quasistatic.solve_step_s": ("s", "lower"),
    "quasistatic.steps": ("count", "lower"),
    "quasistatic.sweeps": ("count", "lower"),
    "quasistatic.sweeps_max": ("count", "lower"),
    "quasistatic.verify_s": ("s", "lower"),
    "proxsolve.solve_field_s": ("s", "lower"),
    "proxsolve.solve_field_calls": ("count", "lower"),
    "proxsolve.prox_nodal_calls": ("count", "lower"),
    "proxsolve.solve_point_s": ("s", "lower"),
    "proxsolve.solve_point_calls": ("count", "lower"),
    "proxsolve.prox_nonsmooth_calls": ("count", "lower"),
    "constitutive.run_s": ("s", "lower"),
    "constitutive.point_steps": ("count", "lower"),
    "constitutive.verify_stability_s": ("s", "lower"),
    "asymptotics.limit_self_s": ("s", "lower"),
    "asymptotics.members": ("count", "lower"),
    "asymptotics.gamma_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metrics that must repeat exactly for a fixed seed
COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "count")


def _resolve(module, path):
    owner = importlib.import_module(module)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(original, module):
    """Every (module, attribute) through which call sites reach original."""
    names = [m for m in list(sys.modules)
             if m == "smaevol" or m.startswith("smaevol.") or m == module]
    out = []
    for name in names:
        mod = sys.modules[name]
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


class Tracer:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.sweeps = []
        self.solver_keys = []  # (op id, (space, params) key) per construction
        self.missing = set()
        self.op = None
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_solver_init(self, args, kwargs, result):
        bound = dict(zip(("self", "space", "params"), args), **kwargs)
        space, params = bound["space"], bound["params"]
        mesh = space.mesh
        key = (tuple(int(k) for k in mesh.n), tuple(float(e) for e in mesh.extents),
               tuple(space.dirichlet_planes), repr(params))
        self.solver_keys.append((self.op, key))

    def _after_solve_step(self, args, kwargs, result):
        self.sweeps.append(int(result[2]["sweeps"]))

    # -- install on enter, restore on exit ---------------------------------

    def __enter__(self):
        hooks = {"quasistatic.solver_init": self._after_solver_init,
                 "quasistatic.solve_step": self._after_solve_step}
        for name, module, path, mode in self.targets:
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{module}.{path}")
                continue
            if mode == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._span(name, original, hooks.get(name))
            sites = [(owner, attr)] if isinstance(owner, type) \
                else _bindings(original, module)
            for site, site_attr in sites:
                self._patches.append((site, site_attr, original))
                setattr(site, site_attr, wrapped)
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()
        return False

    # -- per-layer metrics ---------------------------------------------------

    def mark(self):
        """Position to pass to layer_metrics for the spans recorded after it."""
        return len(self.spans), len(self.sweeps), len(self.solver_keys), \
            Counter(self.counts)

    def span_totals(self, mark):
        """(self seconds, calls) per span name since mark; a span's self
        time is its duration minus the time its child spans cover."""
        first = mark[0]
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        self_s = Counter()
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, mark):
        """Per-layer metrics for everything recorded since mark."""
        first, first_sweep, first_key, counts0 = mark
        self_s, calls = self.span_totals(mark)
        members = sum(
            1 for name, _, _, parent, _ in self.spans[first:]
            if name == "asymptotics.member" or (
                name == "constitutive.run" and parent >= first
                and self.spans[parent][0] == "asymptotics.limit"))
        counts = self.counts - counts0
        sweeps = self.sweeps[first_sweep:]
        per_op = {}
        for op, key in self.solver_keys[first_key:]:
            per_op.setdefault(op, set()).add(key)
        inits = calls["quasistatic.solver_init"]
        distinct = sum(len(keys) for keys in per_op.values())
        return {
            "scenario.parse_s": self_s["scenario.parse"],
            "cli.run_scenario_s": self_s["cli.run_scenario"],
            "cli.write_s": self_s["cli.write"],
            "fem.box_mesh_s": self_s["fem.box_mesh"],
            "fem.build_space_s": self_s["fem.build_space"],
            "fem.assemble_forms_s": self_s["fem.assemble_forms"],
            "fem.assemble_forms_calls": calls["fem.assemble_forms"],
            "fem.inject_s": self_s["fem.inject"],
            "fem.inject_calls": calls["fem.inject"],
            "quasistatic.solver_init_s": self_s["quasistatic.solver_init"],
            "quasistatic.solver_inits": inits,
            "quasistatic.solver_reuse": distinct / inits if inits else 0.0,
            "quasistatic.lu_factor_s": self_s["quasistatic.lu_factor"],
            "quasistatic.lu_factors": calls["quasistatic.lu_factor"],
            "quasistatic.run_self_s": self_s["quasistatic.run"],
            "quasistatic.solve_step_s": self_s["quasistatic.solve_step"],
            "quasistatic.steps": calls["quasistatic.solve_step"],
            "quasistatic.sweeps": sum(sweeps),
            "quasistatic.sweeps_max": max(sweeps, default=0),
            "quasistatic.verify_s": self_s["quasistatic.verify"],
            "proxsolve.solve_field_s": self_s["proxsolve.solve_field"],
            "proxsolve.solve_field_calls": calls["proxsolve.solve_field"],
            "proxsolve.prox_nodal_calls": counts["proxsolve.prox_nodal"],
            "proxsolve.solve_point_s": self_s["proxsolve.solve_point"],
            "proxsolve.solve_point_calls": calls["proxsolve.solve_point"],
            "proxsolve.prox_nonsmooth_calls": counts["proxsolve.prox_nonsmooth"],
            "constitutive.run_s": self_s["constitutive.run"],
            "constitutive.point_steps": counts["constitutive.point_step"],
            "constitutive.verify_stability_s":
                self_s["constitutive.verify_stability"],
            "asymptotics.limit_self_s": self_s["asymptotics.limit"],
            "asymptotics.members": members,
            "asymptotics.gamma_s": self_s["asymptotics.gamma"],
        }

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def median_metrics(per_pass):
    """Median over passes of each metric; counts are checked to repeat."""
    names = per_pass[0].keys()
    merged = {name: statistics.median(m[name] for m in per_pass) for name in names}
    unstable = [name for name in names if name in COUNTS
                and len({m[name] for m in per_pass}) > 1]
    for name in COUNTS:
        if name in merged and name not in unstable:
            merged[name] = per_pass[0][name]
    return merged, unstable
