"""One measured benchmark process (started by run.py, never by hand).

Set-up: start the host-speed sampler, import smaevol from ``src/``,
generate the seeded inputs, run the small warm-up operations untimed,
then print ``READY <burst seconds> <slowdown>`` for the launcher to turn
the set-up time into reference-speed seconds.  With ``--setup-only`` it
stops there.  Otherwise it runs passes (the seed's fixed operation list,
back to back in this one process) until ``--seconds`` have elapsed, gates
every operation's outputs, and prints one JSON object as its last line.
With ``--trace 0`` the sampler keeps running and each pass is also
reported at the reference speed.  With ``--trace 1`` the sampler stops,
and untraced and traced passes alternate, so the tracing overhead is
measured in the same process.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import gate
import hostspeed
import tracing
import workloads

MAX_PROBLEMS = 5
MIN_PASSES = 2


def _import_program():
    import smaevol.cli
    import smaevol.scenario
    return smaevol.scenario, smaevol.cli


class Runner:
    """Runs operations through run_scenario and gates their outputs."""

    def __init__(self, out_root, references):
        self.scenario_mod, self.cli_mod = _import_program()
        self.out_root = Path(out_root)
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, index, scenario, text, check=True):
        """Run one operation; returns ((start, end), verdict or None)."""
        out_dir = self.out_root / f"op{index}"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            parsed = self.scenario_mod.parse_scenario(text)
            manifest = self.cli_mod.run_scenario(parsed, out_dir)
            span = (t0, time.perf_counter())
            verdict = None
            if check:
                ref = self.references.get(workloads.key(scenario))
                verdict = gate.check(manifest, out_dir,
                                     ref["artifacts"] if ref else None)
                if not verdict.ok:
                    self._fail(f"{scenario['kind']} op{index}: "
                               + "; ".join(verdict.problems))
            return span, verdict
        except Exception as e:  # a failed operation is counted, not fatal
            self._fail(f"{scenario['kind']} op{index}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return (t0, time.perf_counter()), None

    def _fail(self, problem):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def run_pass(runner, ops, texts, tracer=None, pass_id=0, sampler=None):
    """One pass over the operation list; returns its record.

    ``raw_s`` is the wall time of the operations.  With a sampler,
    ``net_s`` is that time without the sampler's bursts, and ``wall_s``
    is ``net_s`` at the reference host speed."""
    mark = tracer.mark() if tracer else None
    spans = []
    verdicts = []
    for i, (scenario, text) in enumerate(zip(ops, texts)):
        if tracer:
            tracer.op = f"{pass_id}:{i}"
        span, verdict = runner.run_op(i, scenario, text)
        spans.append(span)
        verdicts.append(verdict)
    op_s = [t1 - t0 for t0, t1 in spans]
    rec = {"traced": tracer is not None, "raw_s": sum(op_s), "op_s": op_s}
    if sampler:
        rec["net_s"] = rec["raw_s"] - sum(sampler.spent(t0, t1) for t0, t1 in spans)
        sampler.sample()  # a pass shorter than INTERVAL_S still has one
        rec["slowdown"] = sampler.slowdown(spans[0][0], time.perf_counter())
        rec["wall_s"] = rec["net_s"] / rec["slowdown"] ** sampler.exponent
    done = [v for v in verdicts if v is not None]
    rec["gate"] = {
        "cli.out_bytes": sum(v.out_bytes for v in done),
        "cli.output_drift": max((v.drift for v in done), default=0.0),
        "cli.csv_identical": sum(v.identical for v in done),
    }
    if tracer:
        rec["layers"] = tracer.layer_metrics(mark)
    return rec


def measure(runner, ops, texts, seconds, trace, sampler=None):
    """Passes until seconds have elapsed and at least MIN_PASSES ran (of
    each kind, when traced passes alternate with untraced ones)."""
    tracer = tracing.Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap state
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer:
                passes.append(run_pass(runner, ops, texts, tracer, len(passes)))
        else:
            passes.append(run_pass(runner, ops, texts, sampler=sampler))
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            return passes, tracer


def per_layer(passes):
    """Median per-layer metrics over the traced passes, plus overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    merged, unstable = tracing.median_metrics(
        [dict(p["layers"], **p["gate"]) for p in traced])
    traced_wall = statistics.median(p["raw_s"] for p in traced)
    merged["trace.wall_s"] = traced_wall
    merged["trace.overhead_s"] = traced_wall - statistics.median(
        p["raw_s"] for p in plain)
    return {name: merged[name] for name in tracing.PER_LAYER}, unstable


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = hostspeed.Sampler(hostspeed.SENSITIVITY[args.workload])
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler):
    out_root = Path(args.out)
    ops = workloads.ops(args.workload, args.seed)
    texts = [json.dumps(d) for d in ops]
    warm = workloads.warmup_ops(args.workload, args.seed)
    runner = Runner(out_root / "warmup", {})
    for i, scenario in enumerate(warm):
        runner.run_op(i, scenario, json.dumps(scenario), check=False)
    warm_failed = runner.failed
    sampler.sample()  # a set-up shorter than INTERVAL_S still has one
    now = time.perf_counter()
    since = float("-inf")
    print(f"READY {sampler.spent(since, now)!r} {sampler.slowdown(since, now)!r}",
          flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        sampler.stop()  # bursts inside traced spans would count as self time
    runner.out_root = out_root / "ops"
    runner.references = gate.load_references(args.workload)
    passes, tracer = measure(runner, ops, texts, args.seconds, args.trace,
                             None if args.trace else sampler)
    sampler.stop()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "warmup_failed": warm_failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    if tracer:
        layers, unstable = per_layer(passes)
        result["per_layer"] = layers
        result["unstable_counts"] = unstable
        result["trace_missing"] = sorted(tracer.missing)
        spans_path = out_root / "spans.jsonl"
        with open(spans_path, "w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")
        result["spans_file"] = str(spans_path)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
