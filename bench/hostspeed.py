"""The shared host's speed, measured with a fixed reference loop.

The benchmark's host is a virtual machine on a shared machine: its speed
drifts by up to 1.5x within a minute, in CPU time as much as in wall time, so
two runs of the same code half a minute apart can differ by a quarter. The
reference loop below does the kind of work the package does (pure-Python
complex products, as in a truncated theta product) and uses nothing from
the package, so a change to the package leaves it alone. The benchmark
times it between passes and scales each measured time by
``REFERENCE_S / reference``: a time at the host speed where the loop takes
``REFERENCE_S``. A change that makes the package slower or faster moves the
scaled times as much as the raw ones; a slow spell of the host moves both
the job and the reference and cancels.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0075  # one chunk of the loop, on the machine the baseline was taken on
CHUNKS = 9


def _chunk() -> complex:
    p = 0.35 + 0.1j
    acc = 0j
    for r in range(800):
        z = complex(0.3 + r * 1e-4, 0.2)
        prod, a, b = 1.0 + 0j, z, p / z
        for _ in range(40):
            prod *= (1.0 - a) * (1.0 - b)
            a *= p
            b *= p
        acc += prod
    return acc


def reference() -> float:
    """Seconds for one chunk: the median of CHUNKS timed chunks, so a single
    preemption does not move it."""
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(reference_s: float) -> float:
    """Factor that takes a time measured at this host speed to REFERENCE_S's."""
    return REFERENCE_S / reference_s
