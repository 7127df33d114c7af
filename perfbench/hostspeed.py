"""Host-speed sampler: reports run times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over minutes (neighbours load the same physical cores and
caches).  The drift is not CPU steal: the process's own CPU time grows as
fast as the wall clock.  A fixed calibration burst that does not depend
on smaevol - a pure-Python loop, small-vector numpy calls and a sparse LU
of a fixed matrix, the three kinds of work the workloads do - is timed
every ``INTERVAL_S`` of wall time from a SIGALRM handler, so it samples
the host throughout the measured work (during a long native call the
handler waits until the call returns).  The slowdown of a sample
is its time divided by ``REFERENCE_S``; a window of work is reported as

    (its wall time - the bursts run inside it) / s ** a

where s is the mean slowdown of those bursts and a the work's
sensitivity to it, which is the time the work would take at the
reference speed.  A change to smaevol moves this figure as it moves the
wall time; a change in the host's speed moves it much less.
``REFERENCE_S`` and the exponents are constants, so figures from
different runs on one host compare directly.

    python3 perfbench/hostspeed.py

refits the exponents from the runs saved under ``.perfbench_out/``.
"""

import json
import math
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu  # bound here, so tracing never counts it

INTERVAL_S = 0.1
# about the burst time on a quiet 2-core x86-64 VM (Python 3.11, numpy 2.4,
# scipy 1.17); a scale constant, so reference figures read as seconds
REFERENCE_S = 0.004

# Exponent a of each workload's pass time in the burst slowdown s (the
# host makes a pass s ** a times as long), fitted on that VM by ``fit``
# over 50-155 passes per workload with s from 0.8 to 1.7 (log-log
# correlation 0.96-0.99).  The workloads do not slow alike: the large LU
# factorizations of bvp-fine slow less than the burst, pure-Python point
# paths more.  Set-up time uses a = 1.
SENSITIVITY = {"bvp-fine": 0.69, "bvp-schedule": 1.11, "point-paths": 1.15}


def _laplacian(n):
    e = np.ones(n)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    i = sp.identity(n)
    a = (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
         + sp.kron(sp.kron(i, i), t))
    return (a + 0.01 * sp.identity(n ** 3)).tocsc()


_MATRIX = _laplacian(7)
_RHS = np.ones(_MATRIX.shape[0])
_VEC = np.arange(6.0)


def burst():
    """The calibration work; returns a value so nothing is skipped."""
    s = 0.0
    d = {}
    for i in range(8000):
        x = i * 0.5
        s += x * x / (1.0 + x)
        d[i & 63] = s
    for _ in range(300):
        w = _VEC * 1.5 + 1.0
        s += float(np.dot(w, w)) + float(np.linalg.norm(w))
    return s + float(splu(_MATRIX).solve(_RHS)[0])


class Sampler:
    """Times ``burst`` every INTERVAL_S between ``start`` and ``stop``.

    Samples are (start time, seconds) pairs on the ``time.perf_counter``
    clock.  For a pass from t0 to t1 with wall time w, the time at the
    reference speed is ``(w - spent(t0, t1)) / slowdown(t0, t1) ** exponent``;
    the worker converts set-up time with exponent 1.
    """

    def __init__(self, exponent=1.0):
        self.exponent = exponent
        self.samples = []
        self._previous = None

    def sample(self):
        """Time one burst now."""
        t0 = time.perf_counter()
        burst()
        self.samples.append((t0, time.perf_counter() - t0))

    def _handler(self, signum, frame):
        self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, t0, t1):
        return [dt for start, dt in self.samples if t0 <= start <= t1]

    def spent(self, t0, t1):
        """Seconds of bursts that ran inside [t0, t1]."""
        return sum(self._inside(t0, t1))

    def slowdown(self, t0, t1):
        """Mean burst time over [t0, t1] as a multiple of REFERENCE_S."""
        inside = self._inside(t0, t1)
        if not inside:
            raise ValueError("no host-speed sample in the window")
        return statistics.fmean(inside) / REFERENCE_S


def fit(passes):
    """Least-squares exponent a in log(net_s) = c + a log(slowdown)."""
    x = [math.log(p["slowdown"]) for p in passes]
    y = [math.log(p["net_s"]) for p in passes]
    return statistics.linear_regression(x, y).slope, statistics.correlation(x, y)


def main():
    by_workload = defaultdict(list)
    for path in sorted(Path.cwd().glob(".perfbench_out/*-t0/result.json")):
        worker = json.loads(path.read_text())["worker"]
        by_workload[worker["workload"]] += [p for p in worker["passes"]
                                            if "net_s" in p]
    for workload, passes in sorted(by_workload.items()):
        if len(passes) < 3:
            continue
        exponent, corr = fit(passes)
        low = min(p["slowdown"] for p in passes)
        high = max(p["slowdown"] for p in passes)
        print(f"{workload}: exponent {exponent:.3f} (in use "
              f"{SENSITIVITY.get(workload)}), correlation {corr:.3f}, "
              f"{len(passes)} passes, slowdown {low:.2f}-{high:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
