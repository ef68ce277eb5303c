"""Host speed, measured by a fixed pure-Python kernel between decisions.

On a shared host the speed a process gets can swing by a factor of two from
one fraction of a second to the next.  `Clock` runs a small kernel between
blocks of decisions and turns each decision's wall time into reference
milliseconds: milliseconds at the host speed where one kernel run takes
REF_KERNEL_MS.  A change in the library's own speed still shows one to one,
because the kernel touches nothing of the library.

The library's decisions slow down more than the kernel does: when the kernel
takes s times its reference time, a decision takes about s ** SLOWDOWN_POWER
times its own, with the power between 1.15 (many sub-millisecond calls) and
1.55 (stack walks of 10 to 100 ms) on a 2-vCPU Xeon guest, fitted per
workload over 90 to 150 s of passes over the same items.  Dividing by
s ** 1.3 removes most of the swing on every workload; dividing by s alone
leaves a quarter to a third of it.

The kernel does the kind of work the library does (a graph search over
dicts, sets and tuples).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REF_KERNEL_MS = 0.35  # the kernel's time at the reference speed; the unit's scale
SLOWDOWN_POWER = 1.3
KERNEL_NODES = 400
KERNEL_SOURCES = 4
KERNEL_REPS = 3  # kernel runs per measurement, averaged
BLOCK_S = 0.005  # timed work between two kernel measurements


class Clock:
    """Kernel timings around timed work, and the work's time in reference ms."""

    def __init__(self):
        rng = random.Random(20111006)
        self.graph = {v: tuple(rng.randrange(KERNEL_NODES) for _ in range(3))
                      for v in range(KERNEL_NODES)}
        self.kernel()  # warm-up
        self.begin()

    def kernel(self) -> int:
        """Breadth-first search from KERNEL_SOURCES nodes; returns the reached total."""
        graph = self.graph
        total = 0
        for source in range(0, KERNEL_NODES, KERNEL_NODES // KERNEL_SOURCES):
            seen = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for v in frontier:
                    for w in graph[v]:
                        if w not in seen:
                            seen[w] = seen[v] + 1
                            following.append(w)
                frontier = following
            total += len(seen)
        return total

    def kernel_s(self) -> float:
        """The mean wall time of KERNEL_REPS kernel runs, in seconds."""
        times = []
        for _ in range(KERNEL_REPS):
            started = perf_counter()
            self.kernel()
            times.append(perf_counter() - started)
        return statistics.fmean(times)

    def begin(self) -> None:
        """Start a series of timings: measure the kernel once."""
        self.last = self.kernel_s()
        self.block: list[float] = []
        self.block_s = 0.0
        self.scaled: list[float] = []

    def add(self, wall_s: float) -> None:
        """Record one timing; after every BLOCK_S of them, measure the kernel again."""
        self.block.append(wall_s)
        self.block_s += wall_s
        if self.block_s >= BLOCK_S:
            self._scale_block()

    def end(self) -> list[float]:
        """Every timing since `begin`, in reference milliseconds, in order."""
        if self.block:
            self._scale_block()
        return self.scaled

    def _scale_block(self) -> None:
        """Scale the block's timings by the mean kernel time before and after it."""
        now = self.kernel_s()
        slowdown = (self.last + now) * 500 / REF_KERNEL_MS
        self.last = now
        self.scaled.extend(t * 1000 / slowdown ** SLOWDOWN_POWER for t in self.block)
        self.block = []
        self.block_s = 0.0
