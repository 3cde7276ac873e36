"""Machine-speed calibration for the timed metrics.

Shared 2-core virtual machines switch between a fast and a slow state (about
1.5x apart) for seconds to minutes at a time, which moves raw pass times more
than any bound worth having.  Each pass therefore times a
fixed kernel that does not touch ttalab (small NumPy products and Python
float work, the mix the workloads have) right before and right after its
timed region, and scales its times by NOMINAL_S / kernel time: a scaled time
is the time the pass would take on a machine where the kernel takes
NOMINAL_S.  The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time in the fast state of a 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11, NumPy 2.4).
NOMINAL_S = 0.0045
REPEATS = 15


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    w = np.ones(10)
    acc = 0.0
    for _ in range(300):
        x = rng.standard_normal((32, 10))
        u = x @ w
        w = w - 0.01 * (x.T @ (-np.tanh(u))) / 32
        acc += math.erfc(float(w[0]) / 10.0)
        acc += sum([float(v) for v in u[:8]])
    z = np.linspace(-14.0, 14.0, 2049)
    for i in range(40):
        acc += float(np.exp(-np.abs(z + i * 1e-3)).sum())
    return acc


def kernel_seconds() -> float:
    """Median time of one kernel run over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
