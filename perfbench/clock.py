"""Unit timing, corrected for the host's speed.

On a shared host the speed of a core drifts by 10-30 % over tens of
seconds as neighbours come and go, and changes within seconds; a run of
30 s of the same code reads anywhere in that range, which is more than the
regression a bound should catch.  So the benchmark samples the host's
speed while it works: between work units a ``Clock`` runs
``reference_loop`` -- fixed rational arithmetic that never touches
ortho2d -- once per ``REFERENCE_EVERY`` seconds of unit time, so the
samples cover a pass in proportion to where its time goes.  Each unit
time is then multiplied by

    REFERENCE_S / (mean of the reference times just before and after it)

which expresses it at the host speed at which the loop takes
``REFERENCE_S`` (about its median on the 2-CPU host of the seed baseline).
The nearest samples, not the pass's mean, because a slow spell of a
second or two falls on a few units only.  A change to ortho2d moves scaled
and raw times alike; the records keep the raw times too.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.020
REFERENCE_EVERY = 0.1


def reference_loop():
    """Fixed pure-Python rational arithmetic of about the operand sizes
    the workloads see (numerators and denominators up to ~190 bits)."""
    for _ in range(24):
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i, i + 7) * Fraction(3 * i + 1, i + 11)
    return total


def reference_seconds():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Clock:
    """Times work units; with ``reference`` set it also samples the
    reference loop between them (see the module docstring)."""

    def __init__(self, reference=True):
        self.reference = reference
        self.samples = []       # reference times since the last scales()
        self.marks = []         # per unit since then: samples before it
        self.all_samples = []
        self._due = REFERENCE_EVERY

    def time(self, fn):
        """(seconds, result) of ``fn()``; the reference loop, when due,
        runs after the unit's timing ends."""
        self.marks.append(len(self.samples))
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        if self.reference:
            self._due -= seconds
            if self._due <= 0:
                self._due = REFERENCE_EVERY
                self._sample()
        return seconds, result

    def _sample(self):
        seconds = reference_seconds()
        self.samples.append(seconds)
        self.all_samples.append(seconds)

    def scales(self):
        """The factor for each unit timed since the last call, in order:
        REFERENCE_S / mean of the samples just before and after it (one
        sample is taken if none was); all 1 without reference."""
        marks, self.marks = self.marks, []
        if not self.reference:
            return [1.0] * len(marks)
        if not self.samples:
            self._sample()
        samples, self.samples = self.samples, []
        last = len(samples) - 1
        return [REFERENCE_S / statistics.fmean(
                    samples[max(0, min(m, last) - 1):min(m, last) + 1])
                for m in marks]
