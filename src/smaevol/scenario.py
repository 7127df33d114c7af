"""Scenario files: parsing, validation and typed access.

Scenarios are JSON documents.  Top-level schema (defaults in brackets):

    kind            one of point-test | conv-tau | conv-rho | bvp-run |
                    bvp-conv | gamma-table                       (required)
    seed            unsigned integer RNG seed                    [0]
    probes          stability probes per check                   [200]
    material        {G [1], kappa [1], c1 [1], c2 [0.5], c3 [1],
                     rho [0], nu [0], R [0.5], delta [0.1]}
    time            {T [1], steps [16]}  (bvp kinds: T is the program end)
    stress_path     {direction (6 plain tensor components, order
                     xx yy zz yz xz xy), amplitudes, times}
                    [ramp-unload of a unit deviator to 3 and back]
    taus            list of step sizes                 (conv-tau) [1/16..1/128]
    reference_tau   reference step size                (conv-tau) [min/8]
    rhos            decreasing rho list              (gamma-table)
    grid            {inside [40], outside [10]} sample counts (gamma-table)
    mesh            {extents [1,1,1], n [2], dirichlet ["x0"]}   (bvp kinds)
    program         {times, traction {plane: vector}, traction_amps,
                     body, body_amps, dirichlet_profile
                     (zero|stretch_x|shear_xy), dirichlet_amps}  (bvp kinds)
    schedule        {rho, nu, tau, n, label}    (conv-rho, bvp-conv)
                    [material rho and nu, n = 2, tau = end / time.steps
                     with end the last program time (bvp-conv) or
                     stress-path time (conv-rho)]
    study           evolution | minproblem | nstep-h     (bvp-conv) [evolution]

Unknown keys raise ParseError naming the key; constraint violations are
collected and reported together in a single ValidationError.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import LimitSchedule
from .constitutive import StressPath, TimeGrid
from .fem import PLANES, LoadProgram
from .material import MaterialParams
from .quasistatic import BvpProblem
from .tensors import Elasticity, sym_from_matrix


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


KINDS = ("point-test", "conv-tau", "conv-rho", "bvp-run", "bvp-conv",
         "gamma-table")

_TOP_KEYS = {"kind", "seed", "probes", "material", "time", "stress_path",
             "taus", "reference_tau", "rhos", "grid", "mesh", "program",
             "schedule", "study", "out"}
_MATERIAL_KEYS = {"G", "kappa", "c1", "c2", "c3", "rho", "nu", "R", "delta"}
_TIME_KEYS = {"T", "steps"}
_PATH_KEYS = {"direction", "amplitudes", "times"}
_MESH_KEYS = {"extents", "n", "dirichlet"}
_PROGRAM_KEYS = {"times", "traction", "traction_amps", "body", "body_amps",
                 "dirichlet_profile", "dirichlet_amps"}
_SCHEDULE_KEYS = {"rho", "nu", "tau", "n", "label"}
_GRID_KEYS = {"inside", "outside"}

MATERIAL_DEFAULTS = {"G": 1.0, "kappa": 1.0, "c1": 1.0, "c2": 0.5, "c3": 1.0,
                     "rho": 0.0, "nu": 0.0, "R": 0.5, "delta": 0.1}

# plain components of a unit deviator (xx yy zz yz xz xy order)
_S = 1.0 / math.sqrt(2.0)
DEFAULT_DIRECTION = [_S, -_S, 0.0, 0.0, 0.0, 0.0]

DIRICHLET_PROFILES = {
    "zero": lambda x: np.zeros(3),
    "stretch_x": lambda x: np.array([x[0], 0.0, 0.0]),
    "shear_xy": lambda x: np.array([x[1], 0.0, 0.0]),
}


@dataclass
class Scenario:
    kind: str
    raw: dict
    seed: int = 0
    probes: int = 200
    material: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)
    stress_path: dict = field(default_factory=dict)
    taus: list = None
    reference_tau: float = None
    rhos: list = None
    grid: dict = None
    mesh: dict = None
    program: dict = None
    schedule: dict = None
    study: str = "evolution"

    # -- typed accessors ---------------------------------------------------

    def params(self) -> MaterialParams:
        m = self.material
        return MaterialParams(elastic=Elasticity(m["G"], m["kappa"]),
                              c1=m["c1"], c2=m["c2"], c3=m["c3"], rho=m["rho"],
                              nu=m["nu"], R=m["R"], delta=m["delta"])

    def time_grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.time["T"], self.time["steps"])

    def path(self) -> StressPath:
        p = self.stress_path
        m = np.zeros((3, 3))
        d = p["direction"]
        m[0, 0], m[1, 1], m[2, 2] = d[0], d[1], d[2]
        m[1, 2] = m[2, 1] = d[3]
        m[0, 2] = m[2, 0] = d[4]
        m[0, 1] = m[1, 0] = d[5]
        return StressPath.proportional(sym_from_matrix(m), p["amplitudes"],
                                       p["times"])

    def load_program(self) -> LoadProgram:
        pr = dict(self.program)
        profile = pr.pop("dirichlet_profile", None)
        kwargs = {"times": pr["times"]}
        if "traction" in pr:
            kwargs["traction"] = {pl: np.asarray(v, dtype=float)
                                  for pl, v in pr["traction"].items()}
            kwargs["traction_amps"] = pr.get("traction_amps")
        if "body" in pr:
            kwargs["body"] = np.asarray(pr["body"], dtype=float)
            kwargs["body_amps"] = pr.get("body_amps")
        if profile and profile != "zero":
            kwargs["dirichlet"] = DIRICHLET_PROFILES[profile]
            kwargs["dirichlet_amps"] = pr.get("dirichlet_amps")
        return LoadProgram(**kwargs)

    def bvp_problem(self) -> BvpProblem:
        mesh = self.mesh
        return BvpProblem(self.params(), self.load_program(),
                          extents=tuple(mesh["extents"]),
                          n=mesh["n"], steps=self.time["steps"],
                          dirichlet_planes=tuple(mesh["dirichlet"]))

    def limit_schedule(self) -> LimitSchedule:
        s = self.schedule
        length = max(len(v) if np.ndim(v) else 1
                     for v in (s["rho"], s["nu"], s["tau"], s["n"]))
        return LimitSchedule.of(length, rho=s["rho"], nu=s["nu"], tau=s["tau"],
                                n=s["n"], label=s.get("label", ""))


def _check_keys(section, data, allowed):
    """Non-object sections and unknown keys are structural problems: they
    abort immediately."""
    if not isinstance(data, dict):
        raise ParseError(f"{section} must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {section}")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    All constraint violations are collected and reported together; only
    structural problems (bad JSON, unknown keys, wrong kinds of values)
    abort immediately.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                         f"{e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")
    _check_keys("scenario", raw, _TOP_KEYS)

    errors = []
    kind = raw.get("kind")
    if kind not in KINDS:
        errors.append(f"kind must be one of {', '.join(KINDS)} (got {kind!r})")
        raise ValidationError(errors)

    _check_keys("material", raw.get("material", {}), _MATERIAL_KEYS)
    material = {**MATERIAL_DEFAULTS, **raw.get("material", {})}
    for name in ("c1", "c2", "c3", "R", "delta", "G", "kappa"):
        if not (isinstance(material[name], (int, float)) and material[name] > 0):
            errors.append(f"{name} must be > 0")
    for name in ("rho", "nu"):
        if not (isinstance(material[name], (int, float)) and material[name] >= 0):
            errors.append(f"{name} must be >= 0")

    _check_keys("time", raw.get("time", {}), _TIME_KEYS)
    time = {"T": 1.0, "steps": 16, **raw.get("time", {})}
    if not time["T"] > 0:
        errors.append("T must be > 0")
    if not (isinstance(time["steps"], int) and time["steps"] >= 1):
        errors.append("steps must be an integer >= 1")

    defaults_path = {"direction": DEFAULT_DIRECTION,
                     "amplitudes": [0.0, 3.0, 0.0],
                     "times": [0.0, time["T"] / 2.0, time["T"]]}
    _check_keys("stress_path", raw.get("stress_path", {}), _PATH_KEYS)
    stress_path = {**defaults_path, **raw.get("stress_path", {})}
    if len(stress_path["direction"]) != 6:
        errors.append("direction needs 6 components (xx yy zz yz xz xy)")
    if len(stress_path["amplitudes"]) != len(stress_path["times"]):
        errors.append("amplitudes and times must have equal length")
    if np.any(np.diff(np.asarray(stress_path["times"], dtype=float)) <= 0):
        errors.append("stress-path times must be strictly increasing")

    seed = raw.get("seed", 0)
    if not (isinstance(seed, int) and seed >= 0):
        errors.append("seed must be a nonnegative integer")
    probes = raw.get("probes", 200)
    if not (isinstance(probes, int) and probes >= 1):
        errors.append("probes must be an integer >= 1")

    scenario = Scenario(kind=kind, raw=raw, seed=seed, probes=probes,
                        material=material, time=time, stress_path=stress_path)

    if kind == "conv-tau":
        taus = raw.get("taus", [1 / 16, 1 / 32, 1 / 64, 1 / 128])
        if not taus or any(t <= 0 for t in taus):
            errors.append("taus must be positive step sizes")
        scenario.taus = taus
        scenario.reference_tau = raw.get("reference_tau", min(taus) / 8.0)
        if scenario.reference_tau > min(taus) / 8.0 + 1e-15:
            errors.append("reference_tau must be at most min(taus)/8")
        if material["rho"] <= 0:
            errors.append("conv-tau requires rho > 0")

    if kind == "gamma-table":
        rhos = raw.get("rhos", [10.0 ** (-k) for k in range(0, 8)])
        if any(r <= 0 for r in rhos) or any(np.diff(rhos) >= 0):
            errors.append("rhos must decrease strictly through positive values")
        scenario.rhos = rhos
        _check_keys("grid", raw.get("grid", {}), _GRID_KEYS)
        grid = {"inside": 40, "outside": 10, **raw.get("grid", {})}
        scenario.grid = grid

    if kind in ("bvp-run", "bvp-conv"):
        _check_keys("mesh", raw.get("mesh", {}), _MESH_KEYS)
        mesh = {"extents": [1.0, 1.0, 1.0], "n": 2, "dirichlet": ["x0"],
                **raw.get("mesh", {})}
        if not (isinstance(mesh["n"], int) and mesh["n"] >= 1):
            errors.append("mesh n must be an integer >= 1")
        for pl in mesh["dirichlet"]:
            if pl not in PLANES:
                errors.append(f"unknown Dirichlet plane {pl!r}")
        if not mesh["dirichlet"]:
            errors.append("the Dirichlet part must be nonempty")
        scenario.mesh = mesh

        program = raw.get("program")
        if program is None:
            program = {"times": [0.0, time["T"] / 2.0, time["T"]],
                       "traction": {"x1": [1.0, 0.0, 0.0]},
                       "traction_amps": [0.0, 3.0, 0.0]}
        _check_keys("program", program, _PROGRAM_KEYS)
        n_errors = len(errors)
        if "times" not in program:
            errors.append("program requires time breakpoints")
        elif "T" in raw.get("time", {}) and program["times"] \
                and program["times"][-1] != time["T"]:
            errors.append("time.T must equal the last program time")
        prof = program.get("dirichlet_profile")
        if prof is not None and prof not in DIRICHLET_PROFILES:
            errors.append(f"unknown dirichlet_profile {prof!r}")
        for chan, amps in (("traction", "traction_amps"),
                           ("body", "body_amps"),
                           ("dirichlet_profile", "dirichlet_amps")):
            if chan in program and amps not in program:
                errors.append(f"{chan} requires {amps}")
            if amps in program and len(program[amps]) != len(program.get("times", [])):
                errors.append(f"{amps} must match the program times")
        errors += [f"traction prescribed on the Dirichlet plane {pl!r}"
                   for pl in program.get("traction", {}) if pl in mesh["dirichlet"]]
        scenario.program = program
        if len(errors) == n_errors:
            try:
                scenario.load_program()
            except ValueError as e:
                errors.append(f"program: {e}")

    if kind in ("conv-rho", "bvp-conv"):
        sched = raw.get("schedule")
        if sched is None:
            errors.append(f"{kind} requires a schedule section")
        else:
            _check_keys("schedule", sched, _SCHEDULE_KEYS)
            # a study runs on the interval of its program or stress path
            end = time["T"]
            if kind == "bvp-conv" and scenario.program.get("times"):
                end = scenario.program["times"][-1]
            if kind == "conv-rho" and stress_path["times"]:
                end = stress_path["times"][-1]
            sched = {"rho": material["rho"], "nu": material["nu"],
                     "tau": end / time["steps"], "n": 2, **sched}
            scenario.schedule = sched

    if kind == "bvp-conv":
        study = raw.get("study", "evolution")
        if study not in ("evolution", "minproblem", "nstep-h"):
            errors.append("study must be evolution, minproblem or nstep-h")
        scenario.study = study

    if scenario.schedule is not None:
        try:
            scenario.limit_schedule().check_study(
                "constitutive" if kind == "conv-rho" else scenario.study)
        except ValueError as e:
            errors.append(f"schedule: {e}")

    if errors:
        raise ValidationError(errors)
    return scenario
