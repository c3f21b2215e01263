"""The machine's speed around each timed operation, from reference kernels.

On a shared virtual machine the CPU time of the same work moves by up
to 1.8x as other tenants load the host: for seconds or minutes at a
time, and in bursts of a few milliseconds.  A run's median then reports
how much of it fell in a slow stretch, and its p99 how many bursts it
met; the same query asked twice in one process lands in the top 1%
both times less often than by chance.

So the run reads the machine's speed around its operations -- the
thread-CPU time of a fixed reference kernel -- and scales each
operation's CPU time to a nominal speed::

    scaled = cpu time x nominal kernel time / mean(reading before, reading after)

Each kind of operation has a kernel that does, in small, the kind of
work it does, so the kernel slows down with it:

* point queries and batches: the *lookup* kernel -- numpy reductions
  over the columns of a 2 MB matrix, dict lookups, small Python
  objects.  A reading is one run, taken before an operation once
  :data:`GROUP_NS` of operations ran since the last one, so a
  millisecond query is bracketed on its own and microsecond cache hits
  in groups (a reading costs about 80 us and cools the caches of the
  operation after it);
* setups and refreshes: the *sweep* kernel -- scipy's Dijkstra from 32
  sources over a 32x32 grid, as the engine sweeps shards.  A reading is
  the median of :data:`SWEEP_REPEATS` runs, right before and right
  after the write.

The kernels are the benchmark's own code, so a change to the program
moves the scaled time as it moves the raw time.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

#: Each kernel's thread-CPU time, in ns, at the nominal speed: about
#: its time on a 2-vCPU Xeon guest when the host is quiet.  A scaled
#: time reads as the CPU time the operation takes at that speed.
LOOKUP_NS = 80_000
SWEEP_NS = 3_000_000
#: Operation time after which the next query or batch gets a fresh
#: lookup reading.
GROUP_NS = 1_000_000
#: Sweep-kernel runs per reading around a write.
SWEEP_REPEATS = 5


def _timed(work: Callable[[], object]) -> int:
    start = time.thread_time_ns()
    work()
    return time.thread_time_ns() - start


class Lookups:
    """The lookup kernel and the data it works on."""

    SITES = 2048
    PAIRS = 10
    OBJECTS = 40

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self.matrix = gen.random((128, self.SITES))
        self.ball = {int(k): 1.0 for k in gen.integers(0, self.SITES * self.SITES, 512)}
        self.columns = gen.integers(0, self.SITES, (self.PAIRS, 2)).tolist()

    def work(self) -> float:
        best = 0.0
        for i, j in self.columns:
            best += float(np.min(self.matrix[:, i] + self.matrix[:, j]))
            self.ball.get(i * self.SITES + j)
        table = {}
        for i in range(self.OBJECTS):
            table[(i, i + 1)] = [i, str(i)]
        return best + len(table)

    def __call__(self) -> int:
        """One run of the kernel, in thread-CPU ns."""
        return _timed(self.work)


class Sweeps:
    """The sweep kernel and the grid it sweeps."""

    SIDE = 32

    def __init__(self) -> None:
        from scipy.sparse import csr_matrix

        side = self.SIDE
        index = np.arange(side * side).reshape(side, side)
        u = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
        v = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
        w = np.random.default_rng(0).uniform(1.0, 3.0, len(u))
        self.graph = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(side * side, side * side),
        )
        self.sources = np.arange(0, side * side, side)

    def work(self) -> np.ndarray:
        from scipy.sparse.csgraph import dijkstra

        return dijkstra(self.graph, indices=self.sources)

    def __call__(self) -> int:
        """One run of the kernel, in thread-CPU ns."""
        return _timed(self.work)


class Meter:
    """The speed readings of one run, taken between operations."""

    def __init__(
        self,
        lookup: Optional[Callable[[], int]] = None,
        sweep: Optional[Callable[[], int]] = None,
    ) -> None:
        self.lookup = lookup or Lookups()
        self.sweep = sweep or Sweeps()
        #: Lookup-kernel time of every reading, in ns.
        self.readings: List[int] = []
        self._since = 0
        self._stale = True

    def read(self) -> None:
        self.readings.append(self.lookup())
        self._since = 0
        self._stale = False

    def start(self) -> int:
        """Before a scaled operation: the index of the reading it runs
        after, taking one first when the group is full or closed."""
        if self._stale or self._since >= GROUP_NS:
            self.read()
        return len(self.readings) - 1

    def ran(self, wall_ns: int) -> None:
        """After a scaled operation that took ``wall_ns``."""
        self._since += wall_ns

    def stop(self) -> None:
        """Close the current group with a reading (before any other
        operation, and when the run ends)."""
        if not self._stale:
            self.read()
            self._stale = True

    def factor(self, reading: int) -> float:
        """Nominal over measured speed for a query or batch that ran
        between lookup reading ``reading`` and the next one."""
        return LOOKUP_NS / float(np.mean(self.readings[reading : reading + 2]))

    def sweep_ns(self) -> float:
        """A sweep reading: the median of :data:`SWEEP_REPEATS` runs."""
        return float(np.median([self.sweep() for _ in range(SWEEP_REPEATS)]))
