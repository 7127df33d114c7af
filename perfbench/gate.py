"""Correctness gate: manifest invariants and comparison with reference outputs.

Reference outputs are the artifacts (CSV tables and field dumps) that the
program wrote for every pool scenario when the references were recorded
(``perfbench/record.py``).  An operation passes when its manifest
invariants hold and every artifact matches its reference: same layout,
same non-numeric tokens, and every numeric token within ``RTOL`` of the
reference, measured against the largest magnitude in its column (floored
at ``SCALE_FLOOR``, so roundoff-level columns such as balance residuals
are not blown up).  The largest such deviation is reported as drift; a
legitimate change of arithmetic shows as drift, not as a failure.
"""

import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-6
SCALE_FLOOR = 1e-8
MIN_ORDER = 0.45

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.xz"


def load_references(workload):
    with lzma.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_references(workload, store):
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with lzma.open(reference_path(workload), "wt", preset=9) as fh:
        json.dump(store, fh, sort_keys=True)


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    drift: float = 0.0
    identical: int = 0
    out_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _tokens(text):
    return [line.replace(",", " ").split() for line in text.splitlines()]


def _number(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def artifact_drift(text, ref_text):
    """Largest column-scaled deviation of text from ref_text.

    Returns (drift, problem) where problem names the first structural or
    non-numeric mismatch, or is None.
    """
    rows, ref_rows = _tokens(text), _tokens(ref_text)
    if len(rows) != len(ref_rows):
        return math.inf, f"{len(rows)} lines, reference has {len(ref_rows)}"
    scale = {}
    for r in ref_rows:
        for j, tok in enumerate(r):
            v = _number(tok)
            if v is not None and math.isfinite(v):
                col = (len(r), j)
                scale[col] = max(scale.get(col, 0.0), abs(v))
    drift = 0.0
    for i, (r, ref) in enumerate(zip(rows, ref_rows)):
        if len(r) != len(ref):
            return math.inf, f"line {i + 1}: {len(r)} fields, reference {len(ref)}"
        for j, (tok, ref_tok) in enumerate(zip(r, ref)):
            if tok == ref_tok:
                continue
            v, w = _number(tok), _number(ref_tok)
            if v is None or w is None or not (math.isfinite(v) and math.isfinite(w)):
                return math.inf, f"line {i + 1}: {tok!r} != {ref_tok!r}"
            dev = abs(v - w) / max(scale[(len(ref), j)], SCALE_FLOOR)
            drift = max(drift, dev)
    return drift, None


def check_manifest(manifest, out_dir):
    """Invariants every run of its kind must satisfy, independent of references."""
    kind = manifest["kind"]
    res = manifest["results"]
    problems = []
    if kind == "bvp-run":
        if not res["stability_passed"]:
            problems.append("energetic stability check failed")
        if not float(res["ledger_peak"]) <= float(res["ledger_bound"]):
            problems.append("ledger peak exceeds the a-priori bound")
    elif kind == "conv-tau":
        if res["degenerate"] or res["order"] is None or res["order"] < MIN_ORDER:
            problems.append(f"temporal order {res['order']} below {MIN_ORDER}")
    elif kind == "gamma-table":
        if not res["monotone_exact"]:
            problems.append("regularized family is not monotone")
    elif kind == "point-test":
        text = (Path(out_dir) / "stability_report.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if not rows or any(r[-1] != "true" for r in rows):
            problems.append("a stability_report.csv row did not pass")
    return problems


def check(manifest, out_dir, reference):
    """Gate one operation's outputs; reference maps artifact name -> text."""
    verdict = Verdict(problems=check_manifest(manifest, out_dir))
    if reference is None:
        verdict.problems.append("no reference output for this scenario")
        return verdict
    if sorted(manifest["artifacts"]) != sorted(reference):
        verdict.problems.append(f"artifacts {manifest['artifacts']} differ from "
                                f"the reference {sorted(reference)}")
        return verdict
    for name in manifest["artifacts"]:
        data = (Path(out_dir) / name).read_bytes()
        verdict.out_bytes += len(data)
        ref_text = reference[name]
        if data == ref_text.encode():
            verdict.identical += 1
            continue
        drift, problem = artifact_drift(data.decode(), ref_text)
        if problem is not None:
            verdict.problems.append(f"{name}: {problem}")
            continue
        verdict.drift = max(verdict.drift, drift)
        if drift > RTOL:
            verdict.problems.append(f"{name}: drift {drift:.3e} above {RTOL:g}")
    return verdict
