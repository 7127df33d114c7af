"""A point run loads no finite-element layer.

fem and quasistatic, and scipy.sparse through them, are imported only where
a BVP kind runs: importing the package or the CLI and running a point-test,
conv-tau, conv-rho or gamma-table scenario load none of them.  Each case
runs in a fresh interpreter, since this test process has long imported all
three; a bvp-run through the same harness shows that it sees them loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
FE_LAYER = ("scipy.sparse", "smaevol.fem", "smaevol.quasistatic")

DOCS = {
    "point-test": {"kind": "point-test", "time": {"steps": 4}, "probes": 4},
    "conv-tau": {"kind": "conv-tau", "material": {"rho": 0.1},
                 "taus": [0.25, 0.125]},
    "conv-rho": {"kind": "conv-rho", "time": {"steps": 4},
                 "schedule": {"rho": [0.1, 0.05]}},
    "gamma-table": {"kind": "gamma-table", "rhos": [1.0, 0.1],
                    "grid": {"inside": 4, "outside": 2}},
    "bvp-run": {"kind": "bvp-run", "mesh": {"n": 1}, "time": {"steps": 2}},
}


def fe_modules_after(code):
    """The modules of FE_LAYER that a fresh interpreter has loaded after
    running code."""
    script = (f"{code}\nimport sys\n"
              f"print(*[m for m in {FE_LAYER!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(_SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def cli_run(kind, tmp_path):
    """Code that runs the DOCS scenario of kind through cli.main."""
    doc = tmp_path / f"{kind}.json"
    doc.write_text(json.dumps(DOCS[kind]))
    argv = ["--scenario", str(doc), "--out", str(tmp_path / kind)]
    return f"from smaevol import cli\nassert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("code", ["import smaevol", "import smaevol.cli"])
def test_importing_loads_no_fe_layer(code):
    assert fe_modules_after(code) == []


@pytest.mark.parametrize("kind", ["point-test", "conv-tau", "conv-rho",
                                  "gamma-table"])
def test_a_point_kind_loads_no_fe_layer(kind, tmp_path):
    assert fe_modules_after(cli_run(kind, tmp_path)) == []


def test_a_bvp_run_loads_the_fe_layer(tmp_path):
    assert fe_modules_after(cli_run("bvp-run", tmp_path)) == list(FE_LAYER)
