"""Scenario files: parsing into the objects a run uses.

Scenarios are JSON documents.  Top-level schema (defaults in brackets):

    kind            one of point-test | conv-tau | conv-rho | bvp-run |
                    bvp-conv | gamma-table                       (required)
    seed            unsigned RNG seed of the point-test probes   [0]
    probes          stability probes per point-test check        [200]
                    (no other kind reads either key)
    material        {G [1], kappa [1], c1 [1], c2 [0.5], c3 [1],
                     rho [0], nu [0], R [0.5], delta [0.1]}
    time            {T [1], steps [16]}  (bvp kinds: T is the program end)
    stress_path     {direction (6 plain tensor components, order
                     xx yy zz yz xz xy), amplitudes, times}
                    [ramp-unload of a unit deviator to 3 and back]
    taus            list of step sizes                 (conv-tau) [1/16..1/128]
    reference_tau   reference step size                (conv-tau) [min/8]
    rhos            decreasing rho list              (gamma-table)
    grid            {inside [40], outside [10]} radius counts (gamma-table)
    mesh            {extents [1,1,1], n [2], dirichlet ["x0"]}   (bvp kinds)
    program         {times, traction {plane: vector}, traction_amps,
                     body, body_amps, dirichlet_profile
                     (zero|stretch_x|shear_xy), dirichlet_amps}  (bvp kinds)
    schedule        {rho, nu, tau, n, label}    (conv-rho, bvp-conv)
                    [material rho and nu, n = 2, tau = end / time.steps
                     with end the last program time (bvp-conv) or
                     stress-path time (conv-rho)]
    study           evolution | minproblem | nstep-h     (bvp-conv) [evolution]

parse_scenario builds, once, every object the run consumes, the spaces of every
mesh the run uses included, so parsing and ``--dry-run`` reject what the run
would reject before it starts, but for a bvp-run or bvp-conv load that starts
beyond yield: the BVP start check needs the assembled solver, so the run stops
with UnstableInitialState.  Each value rule has one owner: MaterialParams and
Elasticity (the signs of the constants, rho's floor), TimeGrid (T and steps),
StressPath (direction and breakpoints), LoadProgram (program times, planes,
amplitude lengths, 3-component vectors, no traction on a Dirichlet plane),
BvpProblem (a nonempty Dirichlet part), box_mesh and build_space (extents, n,
plane names), LimitSchedule (lengths, monotonicity, signs, rho's floor, n >= 1)
and its check_study (the entries a study fixes and, for the studies that step
in time, tau > 0 and every tau's grid nesting in its reference's),
minproblem_time (a minproblem study's load data at T, on its space, not all 0),
rate_study_steps (conv-tau, nesting included), gamma_rhos (gamma-table) and
checked_initial_state (a stable start of the stress path for every rho of a
point-test, conv-tau or conv-rho run).
This module keeps only what no object knows: the structure (unknown keys and
non-object sections raise ParseError), the JSON types (a number is a 64-bit int
or a finite float, a count a 64-bit int, neither a bool; type errors raise a
ValidationError before any object sees a value), the defaults, the seed, probe
and radius counts, and the rules that span sections: an explicit time.T is the
last program time, a program has times and each of its channels its
amplitudes, the dirichlet_profile, the study and the kind are known, and
conv-rho and bvp-conv have a schedule.  All other violations (an object
that does not fit in memory too) are collected into one ValidationError.
"""

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .asymptotics import LimitSchedule, gamma_rhos, minproblem_time
from .constitutive import (StressPath, TimeGrid, UnstableInitialState,
                           checked_initial_state, rate_study_steps)
from .material import MaterialParams
from .tensors import SQ2, Elasticity


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


KINDS = ("point-test", "conv-tau", "conv-rho", "bvp-run", "bvp-conv",
         "gamma-table")
STUDIES = ("evolution", "minproblem", "nstep-h")

MATERIAL_DEFAULTS = {"G": 1.0, "kappa": 1.0, "c1": 1.0, "c2": 0.5, "c3": 1.0,
                     "rho": 0.0, "nu": 0.0, "R": 0.5, "delta": 0.1}

# plain components of a unit deviator (xx yy zz yz xz xy order)
DEFAULT_DIRECTION = [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0, 0.0,
                     0.0, 0.0]

# the Dirichlet displacement shape of each profile ("zero": none)
DIRICHLET_PROFILES = {
    "zero": None,
    "stretch_x": lambda x: np.array([x[0], 0.0, 0.0]),
    "shear_xy": lambda x: np.array([x[1], 0.0, 0.0]),
}


def _count(v):
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2 ** 63


def _number(v):
    return _count(v) or isinstance(v, float) and math.isfinite(v)


def _list(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# each kind of JSON value: its check and its name in an error message
NUMBER, COUNT = (_number, "a number"), (_count, "an integer")
NAME = (lambda v: isinstance(v, str), "a string")
NUMBERS, NAMES = ((_list(_number), "a list of numbers"),
                  (_list(NAME[0]), "a list of strings"))
VALUES = (lambda v: _number(v) or NUMBERS[0](v),
          "a number or a list of numbers")
COUNTS = (lambda v: _count(v) or _list(_count)(v),
          "an integer or a list of integers")
VECTORS = (lambda v: isinstance(v, dict) and all(map(NUMBERS[0], v.values())),
           "an object of number lists")
SECTION = (lambda v: True, "an object")     # its keys are checked as a section

# section -> key -> kind of value; the keys are the only ones allowed
SECTIONS = {
    "material": dict.fromkeys(MATERIAL_DEFAULTS, NUMBER),
    "time": {"T": NUMBER, "steps": COUNT},
    "stress_path": dict.fromkeys(("direction", "amplitudes", "times"),
                                 NUMBERS),
    "grid": {"inside": COUNT, "outside": COUNT},
    "mesh": {"extents": NUMBERS, "n": COUNT, "dirichlet": NAMES},
    "program": {"times": NUMBERS, "traction": VECTORS,
                "traction_amps": NUMBERS, "body": NUMBERS,
                "body_amps": NUMBERS, "dirichlet_profile": NAME,
                "dirichlet_amps": NUMBERS},
    "schedule": {"rho": VALUES, "nu": VALUES, "tau": VALUES, "n": COUNTS,
                 "label": NAME},
}
SECTIONS["scenario"] = {"kind": NAME, "seed": COUNT, "probes": COUNT,
                        "taus": NUMBERS, "reference_tau": NUMBER,
                        "rhos": NUMBERS, "study": NAME,
                        **dict.fromkeys(SECTIONS, SECTION)}


@dataclass
class Scenario:
    """A parsed scenario: the objects its run consumes, each built once."""

    kind: str
    raw: dict
    params: MaterialParams
    grid: TimeGrid                  # bvp kinds: on the program's interval
    path: StressPath
    seed: int = 0
    probes: int = 200
    problem: Optional["BvpProblem"] = None    # bvp kinds, spaces built
    schedule: Optional[LimitSchedule] = None  # conv-rho, bvp-conv
    study: str = "evolution"                  # bvp-conv
    taus: Optional[list] = None               # conv-tau, sorted
    reference_tau: Optional[float] = None     # conv-tau
    rhos: Optional[np.ndarray] = None         # gamma-table
    samples: Optional[tuple] = None           # gamma-table (inside, outside)


def _type_errors(raw):
    """ParseError for a non-object section or an unknown key, else the
    JSON type errors."""
    errors = []
    for section in SECTIONS:
        data = raw if section == "scenario" else raw.get(section, {})
        if not isinstance(data, dict):
            raise ParseError(f"{section} must be a JSON object")
        for key, value in data.items():
            if key not in SECTIONS[section]:
                raise ParseError(f"unknown key {key!r} in {section}")
            ok, what = SECTIONS[section][key]
            if not ok(value):
                errors.append(f"{section}.{key} must be {what}")
    return errors


def _build(errors, section, make, *args, **kwargs):
    """make(*args, **kwargs), or None with the messages of its ValueError,
    UnstableInitialState or MemoryError (one per '; '-separated part)
    appended to errors."""
    try:
        return make(*args, **kwargs)
    except (ValueError, UnstableInitialState, MemoryError) as e:
        errors.extend(f"{section}: {msg}"
                      for msg in (str(e) or type(e).__name__).split("; "))
        return None


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document into its run's objects."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                         f"{e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")
    kind = raw.get("kind")
    errors = _type_errors(raw)
    if kind not in KINDS:
        errors.append(f"kind must be one of {', '.join(KINDS)} (got {kind!r})")
    if errors:
        raise ValidationError(errors)

    m = {**MATERIAL_DEFAULTS, **raw.get("material", {})}
    elastic = _build(errors, "material", Elasticity, m.pop("G"), m.pop("kappa"))
    params = _build(errors, "material", MaterialParams,
                    elastic=elastic or Elasticity(), **m)
    time = {"T": 1.0, "steps": 16, **raw.get("time", {})}
    T, steps = time["T"], time["steps"]
    sp = {"direction": DEFAULT_DIRECTION, "amplitudes": [0.0, 3.0, 0.0],
          "times": [0.0, T / 2.0, T], **raw.get("stress_path", {})}
    d = sp["direction"]     # plain shear components to tensor components
    path = _build(errors, "stress_path", StressPath.proportional,
                  [*d[:3], *(SQ2 * c for c in d[3:])], sp["amplitudes"],
                  sp["times"])
    s = Scenario(kind, raw, params, None, path, probes=raw.get("probes", 200),
                 seed=raw.get("seed", 0))
    errors += [msg for msg, bad in (("seed must be >= 0", s.seed < 0),
                                    ("probes must be >= 1", s.probes < 1))
               if bad]

    if kind == "conv-tau" and params and path:
        s.taus, s.reference_tau = _build(
            errors, kind, rate_study_steps, params, path.T,
            raw.get("taus", [1 / 16, 1 / 32, 1 / 64, 1 / 128]),
            raw.get("reference_tau")) or (None, None)
    if kind == "gamma-table":
        s.rhos = _build(errors, kind, gamma_rhos,
                        raw.get("rhos", [10.0 ** (-k) for k in range(0, 8)]))
        grid = {"inside": 40, "outside": 10, **raw.get("grid", {})}
        s.samples = (grid["inside"], grid["outside"])
        if min(s.samples) < 0:
            errors.append("grid counts must be >= 0")

    end = path.T if path else T     # the interval a conv-rho study runs on
    if kind in ("bvp-run", "bvp-conv"):
        from .fem import LoadProgram
        from .quasistatic import BvpProblem
        program = dict(raw.get("program", {
            "times": [0.0, T / 2.0, T], "traction": {"x1": [1.0, 0.0, 0.0]},
            "traction_amps": [0.0, 3.0, 0.0]}))
        n_errors = len(errors)
        if not program.get("times"):
            errors.append("program requires time breakpoints")
        elif "T" in raw.get("time", {}) and program["times"][-1] != T:
            errors.append("time.T must equal the last program time")
        errors += [f"{chan} requires {amps}" for chan, amps in
                   (("traction", "traction_amps"), ("body", "body_amps"),
                    ("dirichlet_profile", "dirichlet_amps"))
                   if chan in program and amps not in program]
        profile = program.pop("dirichlet_profile", None)
        if profile is not None and profile not in DIRICHLET_PROFILES:
            errors.append(f"unknown dirichlet_profile {profile!r}")
        elif len(errors) == n_errors:
            load = _build(errors, "program", LoadProgram,
                          dirichlet=DIRICHLET_PROFILES.get(profile), **program)
            mesh = {"extents": [1.0, 1.0, 1.0], "n": 2, "dirichlet": ["x0"],
                    **raw.get("mesh", {})}
            if load:
                end = load.T
                s.problem = _build(errors, "mesh", BvpProblem, params, load,
                                   extents=tuple(mesh["extents"]), n=mesh["n"],
                                   dirichlet_planes=tuple(mesh["dirichlet"]))
        if s.problem:
            s.grid = _build(errors, "time", TimeGrid.uniform, load.T, steps)
    else:
        s.grid = _build(errors, "time", TimeGrid.uniform, T, steps)

    if kind in ("conv-rho", "bvp-conv"):
        if kind == "bvp-conv":
            s.study = raw.get("study", "evolution")
            if s.study not in STUDIES:
                errors.append(f"study must be one of {', '.join(STUDIES)}")
        if "schedule" not in raw:
            errors.append(f"{kind} requires a schedule section")
        elif s.grid and params:
            sched = {"rho": params.rho, "nu": params.nu, "tau": end / steps,
                     "n": 2, **raw["schedule"]}
            length = max(np.size(sched[k]) for k in ("rho", "nu", "tau", "n"))
            s.schedule = _build(errors, "schedule", LimitSchedule.of, length,
                                **sched)
        if s.schedule is not None and s.study in STUDIES:
            study = "constitutive" if kind == "conv-rho" else s.study
            _build(errors, "schedule", s.schedule.check_study, study, end)

    if kind in ("point-test", "conv-tau", "conv-rho") and params and path:
        # the initial state of every constitutive run, checked without a solve
        rhos = {params.rho}
        if kind == "conv-rho":
            rhos = {*s.schedule.rho.tolist(), s.schedule.reference()[0]} \
                if s.schedule else set()
        for rho in sorted(rhos, reverse=True):
            _build(errors, f"stress_path (rho = {rho:g})", checked_initial_state,
                   replace(params, rho=rho), path.value(0.0))

    if not errors and s.problem:
        # the space of every mesh the run uses
        ns = {s.problem.n} if kind == "bvp-run" else set(s.schedule.n.tolist())
        if kind == "bvp-conv" and s.study != "nstep-h":
            ns.add(s.schedule.reference()[3])
        for n in sorted(ns):
            _build(errors, "mesh", s.problem.space, n)
        if kind == "bvp-conv" and s.study == "minproblem" and not errors:
            _build(errors, "program", minproblem_time, s.problem,
                   s.schedule.reference()[3])
    if errors:
        raise ValidationError(errors)
    return s
