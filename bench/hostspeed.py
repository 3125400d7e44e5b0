"""How fast the host runs right now, from a fixed loop of interpreter work.

A shared virtual machine can run the same code up to twice as slowly
during bursts that last seconds to minutes, and its virtual CPUs slow
down independently of each other.  :func:`host_factor` times the same
loop on each CPU it is given; the benchmark divides a stretch of timed
work by the factor measured at its two ends.  Standard library only, so
it can run before ``repro`` is imported.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Sequence

#: Seconds :func:`host_factor`'s loop takes on the reference host, a quiet
#: 2-vCPU Intel Xeon virtual machine running CPython 3.11.
CALIBRATION_REF_S = 0.015

#: The CPUs this process was allowed when it started, before any pinning.
CPUS: tuple[int, ...] = tuple(sorted(os.sched_getaffinity(0)))


def _calibration_loop() -> float:
    """Seconds a fixed loop of plain interpreter work takes right now."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    x = 0
    for i in range(50_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 4095
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            sorted((key, i & 15, x & 7))
    return perf_counter() - t0


def host_factor(cpus: Sequence[int]) -> float:
    """How many times slower than the reference host ``cpus`` run now (mean)."""
    allowed = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += _calibration_loop()
    finally:
        os.sched_setaffinity(0, allowed)
    return total / len(cpus) / CALIBRATION_REF_S
