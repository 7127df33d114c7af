"""Command line: ``smaevol --scenario FILE [--out DIR] [--dry-run]``.

The scenario's kind chooses the run, whose artifacts go to --out (default:
the current directory).  run_scenario turns results into artifacts: each
CSV table (every header lives here) from the arrays a result carries, the
field dump (fem.dump_fields) and a manifest.json (scenario, seed, package
and library versions, wall time, results).  CSV files carry full double
precision (17 significant digits) and are byte-identical across repeated
runs with the same scenario and seed; the manifest is not, since it records
the wall time.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .asymptotics import (gamma_check_F, gamma_radii, limit_constitutive,
                          limit_evolution, limit_minproblem,
                          nstep_h_convergence, temporal_error_study)
from .constitutive import run_constitutive, verify_stability
from .fem import dump_fields
from .quasistatic import run_incremental_bvp, verify_energetic
from .scenario import ParseError, Scenario, ValidationError, parse_scenario


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def run_scenario(s: Scenario, out_dir) -> dict:
    """Execute a validated scenario; returns the manifest dictionary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    p, grid, path = s.params, s.grid, s.path
    artifacts = []
    table = None    # a limit study's table

    def write(name, *content):   # CSV: header, rows; dump: space, fields
        (write_csv if name.endswith(".csv") else dump_fields)(out / name,
                                                              *content)
        artifacts.append(name)

    if s.kind == "point-test":
        traj = run_constitutive(p, path, grid)
        write("trajectory.csv",
              ["t", *(f"eps{k}" for k in range(6)),
               *(f"z{k}" for k in range(5)), "stored_energy",
               "cum_dissipation", "work_integral", "balance_residual"],
              np.column_stack([grid.nodes, traj.eps, traj.z, traj.stored,
                               traj.cum_diss, traj.work, traj.residual]))
        checks = []
        idx = sorted({0, grid.steps // 2, grid.steps})
        for i in idx:
            rep = verify_stability(p, path.value(grid.nodes[i]),
                                   traj.state(i), n_probes=s.probes,
                                   seed=s.seed)
            checks.append([grid.nodes[i], rep.worst_violation,
                           rep.analytic_residual, s.probes, s.seed,
                           rep.passed])
        write("stability_report.csv",
              ["t", "worst_violation", "analytic_residual", "n_probes", "seed",
               "passed"], checks)
        extra = {"final_z_norm": float(np.linalg.norm(traj.z[-1])),
                 "total_dissipation": float(traj.cum_diss[-1]),
                 "max_balance_residual": float(traj.residual.max())}

    elif s.kind == "conv-tau":
        study = temporal_error_study(p, path, s.taus,
                                     reference_tau=s.reference_tau)
        write("rate_table.csv", ["tau", "sup_state_error"],
              list(zip(study.taus, study.errors)))
        extra = {"order": study.order, "degenerate": study.degenerate,
                 "reference_tau": study.reference_tau}

    elif s.kind == "conv-rho":
        table = limit_constitutive(p, path, s.schedule)

    elif s.kind == "gamma-table":
        rep = gamma_check_F(p, s.rhos, gamma_radii(p, *s.samples))
        rows = [[k, rho, rep.inside_gaps[k], rep.zero_values[k]]
                for k, rho in enumerate(rep.rhos)]
        write("gamma_table.csv",
              ["k", "rho", "max_inside_gap", "value_at_zero"], rows)
        extra = {"monotone_exact": rep.monotone_exact,
                 "outside_min_last": rep.outside_min_last,
                 "condition": "monotone pointwise convergence of convex "
                              "energies (sufficient for Gamma-convergence)"}

    elif s.kind == "bvp-run":
        space = s.problem.space()
        rec = run_incremental_bvp(space, p, grid, s.problem.program)
        write("ledger.csv",
              ["t", "stored_energy", "load_pairing", "cum_dissipation",
               "work_sum", "balance_residual", "q", "L_pairing",
               "max_nodal_z"],
              np.column_stack([grid.nodes, rec.stored_u, rec.load_pair,
                               rec.cum_diss, rec.worksum, rec.residual,
                               rec.q, rec.L_pair, rec.nodal_z_norms()]))
        write("final_state.txt", space, {"u": rec.u[-1], "z": rec.z[-1]})
        rep = verify_energetic(rec)
        extra = {"stability_passed": bool(rep.passed),
                 "ledger_peak": rec.ledger_peak,
                 "ledger_bound": rec.apriori.total,
                 "max_nodal_z": rec.max_nodal_z_norm(),
                 "max_balance_residual": float(rec.residual.max())}

    elif s.kind == "bvp-conv" and s.study == "nstep-h":
        out_nh = nstep_h_convergence(s.problem, s.schedule)
        rows = [[e["n_coarse"], e["n_fine"], i, dv]
                for e in out_nh["table"] for i, dv in enumerate(e["diffs"])]
        write("nstep_table.csv", ["n_coarse", "n_fine", "step", "h1_diff"],
              rows)
        extra = {"study": "nstep-h"}

    elif s.kind == "bvp-conv":
        study = limit_evolution if s.study == "evolution" else limit_minproblem
        table = study(s.problem, s.schedule)

    else:  # pragma: no cover - parse_scenario guards the kind
        raise ValueError(f"unhandled kind {s.kind}")

    if table is not None:
        header = ["k", "rho", "nu", "tau", "h", "state_diff", "energy_diff",
                  "diss_diff"]
        write("limit_table.csv", header,
              [[r[c] for c in header] for r in table["rows"]])
        # per-member lists of the row entries the table has no column for
        extra = {"label": s.schedule.label, "reference": table["reference"],
                 **{c: [r[c] for r in table["rows"]]
                    for c in table["rows"][0] if c not in header}}

    manifest = {
        "kind": s.kind,
        "scenario": s.raw,
        "seed": s.seed,
        "artifacts": artifacts,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": time.perf_counter() - t_start,
        "results": extra,
    }
    # strict JSON: a non-finite result fails the run before the file opens
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str, allow_nan=False))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smaevol",
        description="Quasi-static evolution of shape-memory materials: "
                    "constitutive runs, convergence studies and "
                    "boundary-value simulations.  The scenario's kind "
                    "chooses the run.")
    parser.add_argument("--scenario", required=True, metavar="FILE",
                        help="path to the JSON scenario file")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory [default: current directory]")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the scenario and exit")
    args = parser.parse_args(argv)
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(text)
    except (ParseError, ValidationError) as e:
        print(f"error: invalid scenario {args.scenario}: {e}", file=sys.stderr)
        return 1
    if args.dry_run:
        print(f"scenario OK: kind={scenario.kind} seed={scenario.seed}")
        return 0
    try:
        manifest = run_scenario(scenario, args.out)
    except Exception as e:
        print(f"error: scenario {args.scenario} ({scenario.kind}) failed: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(manifest['artifacts'])} and manifest.json to "
          f"{args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
