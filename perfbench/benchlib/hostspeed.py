"""Host-speed reference: a fixed pure-Python loop timed between the
measured operations of a run.

On a shared host the benchmark's two vCPUs slow down by 20-40% for
minutes at a time when other tenants load the same physical cores, and
the time of a CPU-bound run moves with them.  The reference loop is
timed in slices between the runs it is set against, and its mean slice
time over the run, divided by :data:`REFERENCE_SLICE_S`, is the run's
``slowdown``.  Timed figures are reported scaled by it, that is, as
they would read on a host that runs a slice in that time.

The loop is the benchmark's own code and allocates nothing the
collector tracks, so no change to the program under test moves it:
a faster simulator still reads faster, by the same ratio.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: Seconds one reference slice took on the host the benchmark was
#: written on (2-core Xeon VM at 2.1 GHz, CPython 3.11) under its usual
#: load; slices there took 0.05-0.10s as the load changed.  Only the
#: scale of the reported figures depends on it.
REFERENCE_SLICE_S = 0.07

#: Iterations per slice.
SLICE_STEPS = 120_000


class _Counter:
    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def note(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1


def reference_slice() -> int:
    """One slice of the reference loop: dictionary and list lookups,
    attribute updates, method calls and integer arithmetic over a
    seeded address stream, the operations the simulator is made of."""
    table = {}
    ring = [0] * 4096
    counter = _Counter()
    x = 12345
    for i in range(SLICE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 6) & 0x3FFF
        slot = block & 4095
        hit = table.get(block) == ring[slot]
        counter.note(hit)
        table[block] = i
        ring[slot] = i if i & 1 else ring[slot] ^ block
    return counter.hits * 31 + counter.misses


class HostSpeed:
    """Reference slices of one run and the slowdown they give."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time one reference slice, with the collector off so that
        the program's heap never adds to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            reference_slice()
            self.samples.append(time.perf_counter() - begin)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean slice time over the reference: above 1 on a host slower
        than the reference one."""
        if not self.samples:
            raise ValueError("no reference slices timed")
        return sum(self.samples) / len(self.samples) / REFERENCE_SLICE_S
