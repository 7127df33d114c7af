"""tests/pool_drift.py on two tiny artifact trees."""

import subprocess
import sys
from pathlib import Path

import pool_drift

_SCRIPT = Path(__file__).resolve().parent / "pool_drift.py"

_TABLE = ["t,z0,stored_energy", "0,0,1.5", "0.5,0.25,2", "1,0.5,4"]


def _tree(root, table, extra=None):
    """A tree as tests/pool_artifacts.py writes it: one scenario directory
    holding a CSV table and a results.json, plus an optional extra file."""
    out = root / "point-paths" / "0123456789abcdef"
    out.mkdir(parents=True)
    (out / "trajectory.csv").write_text("\r\n".join(table) + "\r\n")
    (out / "results.json").write_text('{\n  "order": 0.5\n}\n')
    if extra:
        (root / extra).write_text("x\n")
    return root


def _run(a, b):
    return subprocess.run([sys.executable, str(_SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, check=True).stdout


def test_identical_trees_print_nothing(tmp_path):
    a = _tree(tmp_path / "a", _TABLE)
    b = _tree(tmp_path / "b", _TABLE)
    assert pool_drift.compare(a, b) == ([], [])
    assert _run(a, b) == ""


def test_a_perturbed_column_reads_its_column_scaled_drift(tmp_path):
    # stored_energy's largest entry is 4, so 2 -> 2 + 4e-9 drifts by 1e-9;
    # a file only one tree has is named after the drifts
    perturbed = list(_TABLE)
    perturbed[2] = "0.5,0.25," + format(2 + 4e-9, ".17g")
    a = _tree(tmp_path / "a", _TABLE)
    b = _tree(tmp_path / "b", perturbed, extra="gamma-edge.csv")
    drifts, only = pool_drift.compare(a, b)
    [(drift, rel, problem)] = drifts
    assert abs(drift - 1e-9) <= 1e-15
    assert rel == "point-paths/0123456789abcdef/trajectory.csv"
    assert problem is None
    assert only == [(str(b), "gamma-edge.csv")]
    assert _run(a, b).splitlines() == [
        "1.000e-09  point-paths/0123456789abcdef/trajectory.csv",
        f"only in {b}: gamma-edge.csv"]


def test_a_structural_mismatch_reads_inf_and_is_named(tmp_path):
    a = _tree(tmp_path / "a", _TABLE)
    b = _tree(tmp_path / "b", _TABLE[:-1])
    assert _run(a, b).splitlines() == [
        "inf  point-paths/0123456789abcdef/trajectory.csv  "
        "(3 lines, reference has 4)"]
