"""Noise diagnostics printed with every run.

CPU steal over the run, the speed of a fixed CPU-bound probe before
and after it, the processor count and the library versions let a
reader tell a steal burst, a slow machine or a changed toolchain from
a regression.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict


def steal_jiffies() -> int | None:
    """Cumulative CPU steal of the machine, from ``/proc/stat``
    (``None`` where the file or the field is missing)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def environment() -> Dict[str, object]:
    """Processor count and toolchain versions."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def _probe_work() -> int:
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


PROBE_SECONDS = 0.25


def cpu_probe_us() -> float:
    """Median thread-CPU time of a fixed pure-Python loop over
    :data:`PROBE_SECONDS`, in us: the machine's current speed (it drifts
    on a shared virtual machine)."""
    samples = []
    end = time.perf_counter() + PROBE_SECONDS
    while time.perf_counter() < end:
        start = time.thread_time_ns()
        _probe_work()
        samples.append((time.thread_time_ns() - start) / 1e3)
    return statistics.median(samples)
