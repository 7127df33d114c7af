"""Traced mesh ladder of the bvp-fine program, phase by phase (not gated).

    python3 perfbench/sweep.py

Run from the repository root.  For each mesh size n = 4, 8, 12 it runs
the seed-0 bvp-fine scenario at that n once, traced, in one process with
the launcher's pinned environment (run.pinned_env), and prints the run
time split into phases by span self time, with the solver counts
alongside:

    mesh           box_mesh + build_space
    assembly       assemble_forms
    factorization  splu
    steps          solve_step + solve_field (the step solves)
    bound          the a-priori ledger bound (_dual_norms, when present)
    verify         verify_energetic
    output         write_csv + dump_fields
    other          the rest of run_scenario (loads, ledger, set-up)

The table is written to ``.perfbench_out/sweep.json``.
"""

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import pinned_env  # noqa: E402

N_LADDER = (4, 8, 12)
SEED = 0
PHASES = {
    "mesh": ("fem.box_mesh", "fem.build_space"),
    "assembly": ("fem.assemble_forms",),
    "factorization": ("quasistatic.lu_factor",),
    "steps": ("quasistatic.solve_step", "proxsolve.solve_field"),
    "bound": ("quasistatic.bound",),
    "verify": ("quasistatic.verify",),
    "output": ("cli.write",),
}
COUNTS = ("quasistatic.lu_factors", "quasistatic.steps", "quasistatic.sweeps",
          "quasistatic.sweeps_max", "proxsolve.solve_field_calls",
          "proxsolve.prox_nodal_calls", "quasistatic.solver_inits")


def sweep(n_list, seed, out_root):
    import tracing
    import workloads
    from smaevol import cli, scenario

    targets = tracing.TARGETS + (
        ("quasistatic.bound", "smaevol.quasistatic", "_dual_norms", "span"),)
    tracer = tracing.Tracer(targets)
    base = workloads.ops("bvp-fine", seed)[0]
    rows = []
    for n in n_list:
        d = dict(base, mesh=dict(base["mesh"], n=n))
        parsed = scenario.parse_scenario(json.dumps(d))
        mark = tracer.mark()
        with tracer:
            t0 = time.perf_counter()
            cli.run_scenario(parsed, out_root / f"n{n}")
            total = time.perf_counter() - t0
        self_s, _ = tracer.span_totals(mark)
        layers = tracer.layer_metrics(mark)
        phases = {ph: sum(self_s[name] for name in names)
                  for ph, names in PHASES.items()}
        phases["other"] = total - sum(phases.values())
        rows.append({"n": n, "nodes": (n + 1) ** 3, "total_s": total,
                     "phases_s": phases,
                     "counts": {c: layers[c] for c in COUNTS}})
    return rows


def main():
    root = Path.cwd()
    env = pinned_env(root)
    if any(os.environ.get(k) != v for k, v in env.items()):
        # numpy must be imported in the pinned environment: re-exec in it
        os.execve(sys.executable, [sys.executable, __file__], env)
    out_root = root / ".perfbench_out" / "sweep"
    rows = sweep(N_LADDER, SEED, out_root)
    names = list(PHASES) + ["other"]
    print(f"{'n':>3} {'nodes':>6} {'total':>8} " + " ".join(f"{p:>13}" for p in names))
    for r in rows:
        print(f"{r['n']:>3} {r['nodes']:>6} {r['total_s']:>7.2f}s "
              + " ".join(f"{r['phases_s'][p]:>12.2f}s" for p in names))
    print()
    print(f"{'n':>3} " + " ".join(f"{c.split('.')[1]:>16}" for c in COUNTS))
    for r in rows:
        print(f"{r['n']:>3} " + " ".join(f"{r['counts'][c]:>16}" for c in COUNTS))
    (out_root.parent / "sweep.json").write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
