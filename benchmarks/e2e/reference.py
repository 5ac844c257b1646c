"""The reference computation that ``cpu_per_op`` is expressed in.

The shared host's processor runs the same instructions up to ~1.5x
slower in phases that last from a fraction of a second to minutes:
another tenant on the same core slows interpreted Python most, one
that loads the memory system slows numpy and memmap scans most.  Wall
and CPU time both move with it, so two runs of one commit can differ by
more than any regression worth catching.

A fixed computation timed right next to each slice of the program's
work slows down with it.  Half of it is interpreted Python (integer
heap traffic and an arithmetic loop), half numpy (sorting 100k floats),
because the program is both.  It shares no code with the program, so a
change to the program cannot move it.  :class:`CpuCost` divides each
slice's CPU time by the reference times around it.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Callable, Iterable

import numpy as np

#: Seed of the reference's input; it never follows ``--seed``.
REFERENCE_SEED = 7


class Reference:
    """Times the reference computation in thread CPU seconds (~7 ms).

    With ``cpus``, the calling thread runs it once pinned to each of
    those processors and returns the mean: for work spread over several
    processes, such as a daemon and its clients, whose processors the
    caller does not know.  Without, it runs wherever the thread is,
    which is where a single-threaded operation just ran.
    """

    def __init__(self, cpus: Iterable[int] | None = None) -> None:
        self.cpus = sorted(cpus) if cpus is not None else None
        self.values = np.random.default_rng(REFERENCE_SEED).random(100_000)

    def __call__(self) -> float:
        if self.cpus is None:
            return self._once()
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._once())
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(times) / len(times)

    def _once(self) -> float:
        t0 = time.thread_time()
        heap: list[int] = []
        x = 1
        for _ in range(2500):
            x = (x * 1103515245 + 12345) % 2147483648
            heapq.heappush(heap, x)
        total = 0
        while heap:
            total += heapq.heappop(heap)
        total += sum(i * i for i in range(15000))
        for _ in range(2):
            np.sort(self.values)
            np.argsort(self.values[:30000])
        return time.thread_time() - t0


class CpuCost:
    """Sums the CPU time of consecutive slices of a run, each divided
    by the mean of the reference times taken just before and just
    after it.

    ``units / ops`` is the ``cpu_per_op`` metric: CPU spent per
    operation, as a multiple of one reference computation.  The caller
    must not let the program run while :meth:`add` times the reference.
    """

    def __init__(self, reference: Callable[[], float]) -> None:
        self.reference = reference
        self.refs = [reference()]
        self.units = 0.0

    def add(self, cpu_s: float) -> None:
        """Account one slice that spent ``cpu_s`` CPU seconds."""
        self.refs.append(self.reference())
        self.units += cpu_s / ((self.refs[-2] + self.refs[-1]) / 2)
