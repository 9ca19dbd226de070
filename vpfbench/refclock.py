"""Timing at reference speed.

On a shared machine the speed of this process drifts by tens of percent
within a second as other tenants come and go, and CPU time drifts with wall
time.  So the benchmark does not average the drift away: it measures it.
Every timed region sits between two slices of a fixed reference loop, and a
SIGPROF timer runs one more slice every SAMPLE_PERIOD_S of CPU time inside
the region.  The region's time at reference speed is its wall time, less the
slices inside it, times NOMINAL_SLICE_S over the mean time of all its slices.

The reference loop is pure-Python exact arithmetic, as vpf's hot path is,
and imports nothing from vpf.
"""
from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

#: Wall time of one reference slice on a quiet 2-vCPU Intel Xeon under
#: CPython 3.11.  A region that runs at this speed reports its wall time.
NOMINAL_SLICE_S = 0.0004

#: CPU seconds between the slices sampled inside a region.  The speed moves
#: within milliseconds, so dense short slices track it better than sparse
#: long ones; the slices take about 7% of the run.
SAMPLE_PERIOD_S = 0.006

_A = tuple(Fraction(i + 1, 2 * i + 3) for i in range(8))
_B = tuple(Fraction(3 * i + 1, i + 2) for i in range(8))
# A few MB of (int, Fraction) pairs walked in pseudo-random order: like vpf's
# heap, and unlike an L1-resident loop, the slice feels a neighbour's
# contention for cache and memory.
_TABLE = tuple((i, Fraction(i, 7)) for i in range(20000))


def reference_slice() -> dict:
    """A fixed Fraction convolution over table entries, folded into dicts."""
    out: dict = {}
    idx = 17
    for x in _A:
        for y in _B:
            idx = idx * 48271 % len(_TABLE)
            k, f = _TABLE[idx]
            out[k % 23] = out.get(k % 23, 0) + x * y + f
    return out


class RefClock:
    """Times regions at reference speed; one per process (owns SIGPROF)."""

    def __init__(self):
        self.slice_s = 0.0      # wall seconds spent in all slices so far
        self.slices: list[float] = []
        self._inside: list[float] = []
        self._armed = False
        signal.signal(signal.SIGPROF, self._on_timer)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _slice(self) -> float:
        t = time.perf_counter()
        reference_slice()
        d = time.perf_counter() - t
        self.slice_s += d
        self.slices.append(d)
        return d

    def _on_timer(self, signum, frame) -> None:
        if self._armed:
            self._inside.append(self._slice())

    def now(self) -> float:
        """Wall clock that stands still while slices run (used by spans)."""
        return time.perf_counter() - self.slice_s

    def factor(self, slices) -> float:
        return NOMINAL_SLICE_S / (sum(slices) / len(slices))

    @contextmanager
    def region(self, out: list):
        """Time the block; append (seconds at reference speed, raw wall s)."""
        # Collect the garbage of earlier work now, not inside the region.
        gc.collect()
        before = self._slice()
        self._inside = inside = []
        stolen = self.slice_s
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self._armed = False
            end = time.perf_counter()
            raw = end - start - (self.slice_s - stolen)
            after = self._slice()
            out.append((raw * self.factor([before, *inside, after]), raw))
