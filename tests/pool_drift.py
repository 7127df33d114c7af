"""Show how far two artifact trees of tests/pool_artifacts.py drift apart.

    python3 tests/pool_drift.py A B

For every file that differs between the trees A and B it prints the
benchmark gate's column-scaled drift of B's file against A's
(``artifact_drift`` of perfbench/gate.py, with A as the reference), largest
first; a structural or non-numeric mismatch reads ``inf`` and is named.
Then it names every file present in only one tree.  Files that are equal
byte for byte are not printed, so two identical trees print nothing.  It
reads perfbench/gate.py and edits nothing there.
"""

import importlib.util
import math
import sys
from pathlib import Path

_GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"


def _gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def compare(a, b):
    """([(drift, path, problem)] for the files that differ, largest drift
    first, then by path; [(tree, path)] for the files only one tree has)."""
    a, b = Path(a), Path(b)
    artifact_drift = _gate().artifact_drift
    in_a, in_b = _files(a), _files(b)
    drifts = []
    for rel in sorted(in_a & in_b):
        new, old = (b / rel).read_bytes(), (a / rel).read_bytes()
        if new != old:
            drift, problem = artifact_drift(new.decode(), old.decode())
            drifts.append((drift, rel, problem))
    drifts.sort(key=lambda d: (-d[0], d[1]))
    only = ([(str(a), rel) for rel in sorted(in_a - in_b)]
            + [(str(b), rel) for rel in sorted(in_b - in_a)])
    return drifts, only


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tests/pool_drift.py A B")
    drifts, only = compare(*argv)
    for drift, rel, problem in drifts:
        text = "inf" if math.isinf(drift) else f"{drift:.3e}"
        print(f"{text}  {rel}" + (f"  ({problem})" if problem else ""))
    for tree, rel in only:
        print(f"only in {tree}: {rel}")


if __name__ == "__main__":
    main(sys.argv[1:])
