"""A fixed calibration kernel that measures the machine's current speed.

On a shared host a CPU switches between a fast and a slow state about
1.7x apart, for seconds to minutes at a time, far more than any
regression worth catching.  The benchmark therefore runs this kernel
between operations and reports times in *calibrated seconds*: each
measured sample times :data:`REFERENCE_S` over the mean kernel time of
the runs within :data:`GAP_S` of it.  The kernel mixes the kinds of work
the workloads do (interpreted loops that build and sort small tuples,
many small numpy products, fresh megabyte-sized arrays), so the fast
state speeds it up about as much as them.  It calls nothing in
``alarmhmm``, so a change to the package changes neither the kernel nor
the ratio of two versions' times.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time that one calibrated second stands for: about its median on
#: a 2-vCPU Intel Xeon (2.1 GHz) cloud guest
REFERENCE_S = 0.040

#: longest gap between kernel runs while operations are shorter than it
GAP_S = 0.5

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((30, 30))
_VECTOR = _RNG.random(30)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    for i in range(3000):
        cells = [(-(i * j % 97) * 0.5, j, i % 3) for j in range(12)]
        cells.sort(key=lambda c: (-c[0], c[1], c[2]))
    row = _VECTOR
    for _ in range(1500):
        row = (row @ _MATRIX) * _VECTOR
        row = row / row.sum()
    for _ in range(24):
        block = np.ones(250_000)
        block *= 1.5
        float(block.sum())
    return time.perf_counter() - start
