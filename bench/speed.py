"""The machine-speed probe that scales every reported time.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over tens of seconds.  Between ops, outside every op timer, the
probe times two fixed loops that share no code with hypam: a scalar
pure-Python loop (like the quadrature integrands and solvers) and a numpy loop
over path-sized arrays (like the path engine).  Its slowdown is the geometric
mean of the two loop times over their reference times.  An op's time is
divided by the mean slowdown of the probes before and after it.  Set-up is
longer than the machine stays in one state, so its time is divided by the
median slowdown of all the run's probes.  A scaled time is therefore an
estimate of the time on the reference machine at its usual speed, and no
change to hypam can move the probe.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPEATS = 5
PY_ITERS = 30_000
NP_ITERS = 50
NP_POINTS = 8192
# median loop times (python, numpy) over fifteen benchmark runs on the 2-vCPU
# Xeon VM the baseline was measured on
REFERENCE_S = (0.0069, 0.0064)

_X = np.linspace(-2.0, 2.0, 3 * NP_POINTS).reshape(3, NP_POINTS)
_Y = np.cos(_X)
_XP = np.linspace(0.0, 5.0, 400)
_FP = np.exp(-_XP)


def _python_loop() -> float:
    t = time.perf_counter()
    s = 0.0
    for i in range(1, PY_ITERS):
        x = i * 1e-4
        s += math.exp(-x) * math.log1p(x) + math.sqrt(x)
    return time.perf_counter() - t


def _numpy_loop() -> float:
    t = time.perf_counter()
    for _ in range(NP_ITERS):
        c = np.sqrt(np.sum(_X * _Y, axis=0) ** 2 + 1.0)
        np.interp(np.arccosh(c + 1.0), _XP, _FP)
    return time.perf_counter() - t


def probe() -> tuple[float, float]:
    """(python, numpy) loop times, each the median of REPEATS timings."""
    return (
        statistics.median(_python_loop() for _ in range(REPEATS)),
        statistics.median(_numpy_loop() for _ in range(REPEATS)),
    )


def slowdown(times: tuple[float, float]) -> float:
    """How many times slower than the reference the probe ran; > 1 is slower."""
    return math.sqrt(times[0] / REFERENCE_S[0] * times[1] / REFERENCE_S[1])
