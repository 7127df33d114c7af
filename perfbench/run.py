"""smaevol benchmark launcher.

    python3 perfbench/run.py --workload bvp-fine --seed 1 --seconds 20 --trace 0

Run from the repository root.  It pins BLAS/OpenMP to one thread, times
the set-up (interpreter start, ``import smaevol``, input generation and
the warm-up operations) in several fresh processes, then runs the
measured worker in one more fresh process and prints one JSON result as
its last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The end-to-end times are given at the
reference host speed (see ``hostspeed.py``).  A provenance line (source
digest, seed, nproc, Python/numpy/scipy versions) precedes it, and the
full record of the run is written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "passed_frac": "ratio"}


class BenchError(Exception):
    pass


def pinned_env(root):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process; the set-up time runs until it prints READY.

    ``setup_raw_s`` is the wall time to READY, ``setup_s`` the same at the
    reference host speed, from the bursts the worker reports with READY.
    """

    def __init__(self, args, root, out, setup_only, deadline):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=pinned_env(root),
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_raw_s = time.perf_counter() - t0
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            self.finish()
            raise BenchError("worker failed during set-up")
        spent, slowdown = float(fields[1]), float(fields[2])
        self.setup_s = (self.setup_raw_s - spent) / slowdown

    def finish(self):
        """Wait for the worker; returns its stdout after READY."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker exceeded the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out


def probe_setup(args, root, out, count, deadline):
    probes = []
    for _ in range(count):
        probe = Worker(args, root, out / "probe", True, deadline)
        probe.finish()
        probes.append(probe)
    return probes


def provenance(root, args):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "smaevol").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    import scipy
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: "1" for v in THREAD_VARS}}


def end_to_end(result, setup_samples):
    return {"wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
            "passed_frac": 1.0 - result["failed"] / result["attempted"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "smaevol" / "__init__.py").is_file():
        print("error: run from the repository root (src/smaevol not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        # probes before and after the measured worker spread the set-up
        # samples over the run, so one slow spell of a shared host moves
        # fewer of them
        setups = probe_setup(args, root, out, SETUP_PROBES // 2, deadline)
        worker = Worker(args, root, out, False, deadline)
        setups.append(worker)
        result = json.loads(worker.finish().strip().splitlines()[-1])
        setups += probe_setup(args, root, out, SETUP_PROBES - SETUP_PROBES // 2,
                              deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setup_samples = [w.setup_s for w in setups]

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(result, setup_samples).items()}
    record = {"provenance": provenance(root, args), "setup_samples": setup_samples,
              "setup_raw_samples": [w.setup_raw_s for w in setups],
              "metrics": metrics, "worker": result}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": result["failed"] == 0 and not result.get(
                          "unstable_counts"),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
