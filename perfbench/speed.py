"""A fixed reference computation that tracks how fast the machine runs now.

On a shared virtual machine the speed available to one process drifts by
10-30% over seconds, so wall times of the same run taken a minute apart
differ by more than the regressions the benchmark must catch.  The loop
therefore times this reference right before every run, and each run's wall
time is scaled by ``NOMINAL_S / reference``: the time the run would have
taken at the speed at which the reference takes ``NOMINAL_S``.  Stabcert
code never runs inside the reference, so a change to stabcert moves the
run times and not the reference.

The reference mixes interpreted Python, a sort of a mid-sized vector, and
rank-1 updates of a small tableau: the kinds of work the certification loop
does between and inside solver calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference time at the machine speed the benchmark reports in: about the
# fastest pass of the reference on a 2-core x86_64 VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.0013

_VECTOR = np.linspace(0.0, 1.0, 2048)
_TABLEAU = np.linspace(0.0, 1.0, 20 * 80).reshape(20, 80)


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference work."""
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    vec = _VECTOR
    for _ in range(30):
        vec = np.sort(vec[::-1] * 1.0000001)
    tab = _TABLEAU.copy()
    for k in range(60):
        row = k % 20
        col = int(np.argmin(tab[row]))
        tab[row] /= tab[row, col] + 1.0
        colv = tab[:, col].copy()
        colv[row] = 0.0
        tab -= np.outer(colv, tab[row]) * 1e-3
    return time.perf_counter() - start


def speed_factor(samples: int = 5) -> float:
    """NOMINAL_S over the median of a few reference passes."""
    return NOMINAL_S / statistics.median(reference_seconds() for _ in range(samples))
