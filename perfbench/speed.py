"""Host speed reference, to scale timings taken on a shared machine.

On a shared machine, speed can drift by as much as half over minutes while
other tenants load the cores (seen on a 2-vCPU 2.0 GHz Xeon VM); neither
wall time nor process CPU time excludes it.  The benchmark therefore
samples a fixed interpreter-bound loop between cases (and between walk's
runs) and scales every timed part by ``NOMINAL_S / t_ref``, where ``t_ref``
is the median of the reference samples nearest that part.  A scaled time
reads as the time on a machine where the loop takes ``NOMINAL_S``.  The drift the loop and the cases share cancels; a change
to prismbox does not touch the loop, so it shows in full.  Raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

NOMINAL_S = 1.0e-3      # about the loop's time on a 2.0 GHz Xeon vCPU, Python 3.11
EVERY_S = 0.25          # sample interval between cases
NEAREST = 8             # samples whose median scales one part (~2 s)
CELLS = 6000


class _Cell:
    __slots__ = ("key", "next")

    def __init__(self, key: int, nxt):
        self.key = key
        self.next = nxt


class SpeedReference:
    """Times a fixed loop that allocates no tracked objects."""

    def __init__(self):
        head = None
        for key in range(CELLS):
            head = _Cell(key * 7919 % 4093, head)
        self._head = head
        self._table = dict.fromkeys(range(256), 0)
        self.samples: list[float] = []      # seconds per loop
        self._last = float("-inf")

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        table = self._table
        cell = self._head
        while cell is not None:
            key = cell.key
            table[key & 255] = (table[key & 255] + key) & 1023
            cell = cell.next
        seconds = perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(seconds)
        self._last = start
        return seconds

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def slot(self) -> int:
        """The interval now running: the number of samples taken so far."""
        return len(self.samples)

    def factor(self, slot: int) -> float:
        """Scale for a timing in interval `slot`: NOMINAL_S / local reference.

        The local reference is the median of the NEAREST samples around the
        interval, half taken before it and half after.
        """
        near = self.samples[max(0, slot - NEAREST // 2):slot + NEAREST // 2]
        return NOMINAL_S / statistics.median(near)
