"""The host's momentary speed, from a fixed calibration kernel.

The benchmark runs on a few cores of a shared host, where the same code
runs up to twice as slowly when neighbours are busy, in phases from a
fraction of a second to minutes.  Longer runs and medians cannot remove
a phase that lasts a whole run, so every timed unit of an untraced run
(a step interval, a certified instance, a set-up) is taken right next to
a run of `kernel`, and its time is rescaled to the speed at which the
kernel takes `REFERENCE_S`:

    normalized = measured * REFERENCE_S / kernel time

The kernel mixes what the package spends its time on: interpreted loops
over numpy scalars and Python containers, and a dense LU solve.  It is
part of the benchmark and never changes with the package, so a faster
package still shows as faster; only the host's speed is divided out.
"""

from __future__ import annotations

import time

import numpy as np

perf_counter = time.perf_counter

# The kernel's time on the 2-vCPU baseline machine (Xeon, 2.1 GHz) at
# its quiet speed.  Any fixed value would do; this one keeps normalized
# times close to the times measured on that machine when it is quiet.
REFERENCE_S = 2.9e-4

_rng = np.random.default_rng(20210608)
_A, _B, _C = _rng.standard_normal((3, 100))
_LIST = [float(x) for x in _A]
_DICT = {i: float(x) for i, x in enumerate(_B)}
_M = _rng.standard_normal((120, 120)) + 120.0 * np.eye(120)
_V = _rng.standard_normal(120)


def _work() -> float:
    acc = 0.0
    for _ in range(2):
        for i in range(100):
            acc += _A[i] * (_B[i] + _C[i])
    for i in range(300):
        acc = acc * 0.5 + _LIST[i % 100] * _DICT[(i * 7) % 100]
    return acc + float(np.linalg.solve(_M, _V)[0])


def kernel() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def kernel_median(repeats: int = 3) -> float:
    """Median of a few kernel runs, for units long enough to afford them."""
    return float(np.median([kernel() for _ in range(repeats)]))
