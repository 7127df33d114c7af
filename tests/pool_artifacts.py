"""Write the artifacts of every benchmark pool scenario, for a byte-level diff.

    python3 tests/pool_artifacts.py OUT

runs each scenario of ``workloads.pool(w)`` for the three workloads of
perfbench/workloads.py through ``run_scenario`` and leaves its artifacts,
without the timing-bearing ``manifest.json``, in ``OUT/<workload>/<key>/``
(``key`` is the workload module's scenario key).  Running it in two
checkouts and comparing with ``diff -r`` shows whether a change keeps every
pool output byte for byte.  It imports smaevol from the ``src/`` next to
this file, reads perfbench/ and edits nothing there; pytest does not
collect it.
"""

import importlib.util
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

from smaevol.cli import run_scenario  # noqa: E402
from smaevol.scenario import parse_scenario  # noqa: E402


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tests/pool_artifacts.py OUT")
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for scenario in workloads.pool(workload):
            out = Path(argv[0]) / workload / workloads.key(scenario)
            run_scenario(parse_scenario(json.dumps(scenario)), out)
            (out / "manifest.json").unlink()
            print(workload, out.name, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
