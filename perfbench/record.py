"""Record the reference outputs of every pool scenario at the current commit.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root with BLAS threads pinned to one.  Each
scenario a seed can draw (``workloads.pool``) is run once through
``run_scenario``; its data artifacts are stored, with the scenario, in
``perfbench/reference/<workload>.json.xz``.  The manifest invariants of
``gate.check_manifest`` must hold, or nothing is written.  Re-record only
in a change that redefines the benchmark, never in one that claims a gain.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def record(workload):
    from smaevol.cli import run_scenario
    from smaevol.scenario import parse_scenario
    store = {}
    for scenario in workloads.pool(workload):
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            t0 = time.perf_counter()
            manifest = run_scenario(parse_scenario(json.dumps(scenario)), tmp)
            elapsed = time.perf_counter() - t0
            problems = gate.check_manifest(manifest, tmp)
            if problems:
                raise SystemExit(f"{workload} {scenario['kind']}: {problems}")
            store[workloads.key(scenario)] = {
                "scenario": scenario,
                "artifacts": {name: (Path(tmp) / name).read_bytes().decode()
                              for name in manifest["artifacts"]}}
        print(f"{workload} {scenario['kind']} {workloads.key(scenario)} "
              f"{elapsed:.2f} s", flush=True)
    gate.save_references(workload, store)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
