"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/report.py [--workload NAME ...] [--runs 10]
                                [--first-seed 0] [--trace 0|1]

Run from the repository root.  Each run is a separate ``run.py`` call
(fresh processes, ``run_seconds`` from BENCHMARK.json), on seeds
first-seed, first-seed + 1, ...  For each workload and metric it prints
the median, the quartiles, the run count and the spread (interquartile
range as a share of the median, from ``statistics.quantiles(n=4)``)
next to the metric's bound, plus failed_frac: the share of attempted
operations that raised or failed the correctness gate.  The runs are
saved to ``.perfbench_out/report.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    saved = {}
    for workload in args.workload or names:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        saved[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed_frac "
              f"{failed / attempted:.4g} ({failed}/{attempted}), correct "
              f"{all(r['correct'] for r in runs)}")
        print(f"  {'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, m in runs[0]["metrics"].items():
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            print(f"  {name:34} {m['unit']:>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {spread:>8.4f} {'' if bound is None else bound:>6}")
    out = Path.cwd() / ".perfbench_out" / "report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(saved, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
