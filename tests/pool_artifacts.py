"""Write the artifacts of every benchmark pool scenario, every shipped
scenario and one document per study kind no pool covers, for a byte-level
diff.

    python3 tests/pool_artifacts.py OUT

runs each scenario of ``workloads.pool(w)`` for the three workloads of
perfbench/workloads.py through ``run_scenario`` and leaves its artifacts in
``OUT/<workload>/<key>/`` (``key`` is the workload module's scenario key),
with the manifest's ``results`` as ``results.json`` (sorted keys) in place
of the timing-bearing ``manifest.json``.  It does the same for
``scenarios/<name>.json`` in ``OUT/scenarios/<name>/`` and for the
documents of ``STUDIES`` in ``OUT/studies/<name>/``, so that every study
kind runs: a minimization over rho and over h, an nstep-h study and a
(tau, h) evolution study; for ``LOADED_START`` in ``OUT/loaded-start/``,
a bvp-run whose body, traction and Dirichlet loads are all nonzero at t0, so
its start check is not the zero-load one; and for ``SHARP_PULL`` in
``OUT/sharp-pull/``, a sharp bvp-run whose pull leaves some nodes at z = 0,
so its certificate meets the zero kink; and for ``GAMMA_EDGE`` in
``OUT/gamma-edge/``, a gamma-table run with no outside radii of its own, so
only the penalty's breakpoints lie outside the ball; and for the documents
of ``C2_POINT`` in ``OUT/c2/<name>/``, point runs at c2 = 1.5, where the
step's modulus 2 c2 is not a power of two; and for the documents of
``PROBE_EDGE`` in ``OUT/probe-edge/<name>/``, a sharp and a smooth
point-test of one stability probe each, drawn from a seed above 2^32.
Every ``results.json``
is parsed back as strict JSON (no NaN or Infinity); the files that fail are
named at the end, and the exit status is then 1.  Running it in two
checkouts and comparing with ``diff -r`` shows whether a change keeps every
output byte for byte.  It imports smaevol from the ``src/`` next to this
file, reads perfbench/ and scenarios/ and edits nothing there; pytest does
not collect it, but tests/test_scenario_cli.py checks that its documents
parse.
"""

import importlib.util
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

from smaevol.cli import run_scenario  # noqa: E402
from smaevol.scenario import parse_scenario  # noqa: E402

_MATERIAL = {"rho": 0.1, "nu": 0.01}
_PULL = {"times": [0.0, 1.0], "traction": {"x1": [1.0, 0.0, 0.0]},
         "traction_amps": [0.0, 3.0]}
_PULL_UNLOAD = {"times": [0.0, 0.5, 1.0], "traction": {"x1": [1.0, 0.0, 0.0]},
                "traction_amps": [0.0, 3.0, 0.0]}


def _study(study, program, schedule, steps=4):
    return {"kind": "bvp-conv", "study": study, "material": _MATERIAL,
            "time": {"T": 1.0, "steps": steps}, "program": program,
            "schedule": schedule}


# the bvp-conv study kinds that neither a pool nor a shipped scenario runs
STUDIES = {
    "minproblem-rho": _study("minproblem", _PULL,
                             {"rho": [0.1, 0.05, 0.025], "n": 2}),
    "minproblem-h": _study("minproblem", _PULL, {"n": [1, 2]}),
    "nstep-h": _study("nstep-h", _PULL_UNLOAD, {"n": [1, 2, 4]}),
    "evolution-tau-h": _study("evolution", _PULL_UNLOAD,
                              {"tau": [0.25, 0.125], "n": [1, 2]}),
}

# a bvp-run already loaded at t0 through all three channels (the Dirichlet
# lifting of stretch_x vanishes on x0, so its load is the lifting's pairing)
LOADED_START = {
    "kind": "bvp-run", "material": _MATERIAL, "time": {"T": 1.0, "steps": 4},
    "program": {"times": [0.0, 0.5, 1.0],
                "body": [0.0, 0.0, -1.0], "body_amps": [0.2, 1.0, 0.4],
                "traction": {"x1": [1.0, 0.0, 0.0]},
                "traction_amps": [0.3, 1.5, 0.0],
                "dirichlet_profile": "stretch_x",
                "dirichlet_amps": [0.02, 0.05, 0.02]}}

# a sharp bvp-run (n = 2) whose states keep z = 0 at some nodes
SHARP_PULL = {
    "kind": "bvp-run", "material": {"rho": 0.0, "nu": 0.01},
    "time": {"T": 1.0, "steps": 4},
    "program": {"times": [0.0, 1.0], "traction": {"x1": [1.0, 0.0, 0.0]},
                "traction_amps": [0.0, 2.0]}}


# a gamma-table run whose grid has no outside radii of its own
GAMMA_EDGE = {"kind": "gamma-table", "material": {"delta": 0.05},
              "grid": {"inside": 5, "outside": 0}}


# point runs at c2 = 1.5 (every pool point run has c2 = 1/2, where gradient
# and prox units agree; at a c2 whose 2 c2 is a power of two the two units
# differ by an exact scaling, so a change of units would keep every byte): a
# sharp point-test whose pull reaches the ball (at |b| = 2 c2 c3 + c1 + R =
# 4.5 against a peak of 6) and a smooth conv-tau whose peak is off the
# grids' nodes, so its order is not degenerate
C2_POINT = {
    "point-test": {"kind": "point-test", "material": {"rho": 0.0, "c2": 1.5},
                   "stress_path": {"amplitudes": [0.0, 6.0, 0.0]}},
    "conv-tau": {"kind": "conv-tau", "material": {"rho": 0.1, "c2": 1.5},
                 "stress_path": {"amplitudes": [0.0, 4.0, 0.0],
                                 "times": [0.0, 1.0 / 3.0, 1.0]}},
}


# point-tests of one stability probe from a seed wider than 32 bits (every
# pool point-test draws 200 probes from a seed below 10), sharp and smooth
PROBE_EDGE = {
    name: {"kind": "point-test", "seed": 1234567890123456789, "probes": 1,
           "material": {"rho": rho},
           "stress_path": {"amplitudes": [0.0, 3.0, 0.0]}}
    for name, rho in (("sharp", 0.0), ("smooth", 0.1))}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _write(scenario, out):
    """Run scenario into out; None, or a message naming its results.json
    when that file is not strict JSON."""
    results = run_scenario(parse_scenario(json.dumps(scenario)), out)["results"]
    (out / "manifest.json").unlink()
    text = json.dumps(results, indent=2, sort_keys=True, default=str) + "\n"
    (out / "results.json").write_text(text)
    print(out.parent.name, out.name, flush=True)
    try:
        json.loads(text, parse_constant=_reject)
    except ValueError as e:
        return f"{out / 'results.json'}: {e}"
    return None


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tests/pool_artifacts.py OUT")
    out = Path(argv[0])
    workloads = _workloads()
    runs = [(scenario, out / workload / workloads.key(scenario))
            for workload in workloads.WORKLOADS
            for scenario in workloads.pool(workload)]
    runs += [(json.loads(path.read_text()), out / "scenarios" / path.stem)
             for path in sorted((_ROOT / "scenarios").glob("*.json"))]
    runs += [(scenario, out / "studies" / name)
             for name, scenario in STUDIES.items()]
    runs += [(LOADED_START, out / "loaded-start"),
             (SHARP_PULL, out / "sharp-pull"), (GAMMA_EDGE, out / "gamma-edge")]
    runs += [(scenario, out / "c2" / name)
             for name, scenario in C2_POINT.items()]
    runs += [(scenario, out / "probe-edge" / name)
             for name, scenario in PROBE_EDGE.items()]
    bad = [e for e in (_write(*run) for run in runs) if e]
    if bad:
        sys.exit("not strict JSON:\n" + "\n".join(bad))


if __name__ == "__main__":
    main(sys.argv[1:])
