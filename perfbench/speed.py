"""The machine's current speed, read from a fixed pure-Python kernel.

The benchmark runs on machines whose speed drifts: on a 2-vCPU VM, the
median pass of one `batch` job list moved between 1.28 and 2.25 s from one
30 s run to the next, and CPU time moved with wall time, so the slowdown
is slower execution, not waiting.  Every timed process therefore samples
this kernel between jobs, and run.py rescales each pass by
scale(workload, median kernel time in the pass).

The kernel is Fraction arithmetic and small tuple, list and dict work, as
in altbase, but it is the benchmark's own code, so no change to the
program can move it.  The drift slows interpreter-bound code much more
than big-integer arithmetic, so each workload's correction has its own
exponent (EXPONENT below).
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.002

# How strongly each workload's time follows the kernel: the slope of
# log(time) on log(kernel time), fitted on ten 27 s runs per workload on
# the VM above and rounded to a quarter (batch 0.6-1, precision 0.45,
# period 0.15-0.36, coding 0.19-0.75, set-up 0.36-0.41).  A time t sampled
# at kernel time k is reported as t * (REF_S / k) ** EXPONENT.
EXPONENT = {"batch": 1.0, "precision": 0.5, "period": 0.25, "coding": 0.5, "setup": 0.5}
_COEFFS = (3, -7, 11, -2, 5, 1, -9, 4, 6, -1)


def _kernel() -> int:
    x = Fraction(1234567891, 1 << 31)
    s = 0
    for _ in range(25):
        acc = Fraction(0)
        for c in _COEFFS:
            acc = acc * x + c
        s += acc > 0
        x += Fraction(1, 1 << 40)
    d: dict = {}
    out: list = []
    for i in range(3000):
        key = (i & 15, i >> 4)
        d[key] = d.get(key, 0) + i
        if i % 3 == 0:
            out.append(tuple(out[-1:]))
    return s + len(d) + len(out)


def scale(kind: str, kernel_s: float) -> float:
    """Factor that takes a time sampled at kernel time kernel_s to REF_S."""
    return (REF_S / kernel_s) ** EXPONENT[kind]


def sample() -> float:
    """Seconds for one kernel run, best of three."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best
