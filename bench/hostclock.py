"""Step timer that reports each step in reference-host seconds.

The 2-vCPU VM the benchmark was tuned on runs the same code at speeds up to
~50% apart, switching within seconds and staying in one mode for up to
tens of seconds.  A plain CPU loop shows the same swings in its own CPU
time, so they are not time spent descheduled, and a whole run can fall in
one mode, which no in-run median or minimum averages away.  So each timed
step is bracketed by a fixed reference kernel, and the step's time is
rescaled to the kernel's nominal speed:

    host_s = measured_s * REF_NOMINAL_S / mean(reference before, reference after)

A change to spadrate moves the step, never the kernel, so it moves
``host_s`` in proportion.  The rescaling follows the host best on short
steps; on a step of several seconds the two reference samples may catch
different modes than the step saw.  Measured seconds are kept beside the
rescaled ones and written to the run record.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

# reference() on the 2-vCPU VM the benchmark was tuned on, in its faster mode.
REF_NOMINAL_S = 0.0016
# A reference sample this recent is reused as the next step's "before".
REUSE_S = 0.05

_DATA = np.random.default_rng(0).random(15_000)


def _kernel() -> float:
    """Time a fixed mix of interpreter and numpy work (~2.5 ms)."""
    t0 = perf_counter()
    s = 0.0
    for i in range(25_000):
        s += i * 0.5
    np.sort(_DATA)
    np.exp(_DATA).sum()
    return perf_counter() - t0


def reference() -> float:
    """Median of three kernel timings, so one interrupted sample does not count."""
    return sorted(_kernel() for _ in range(3))[1]


class Clock:
    """Times steps; ``steps`` lists (measured s, reference-host s) per step."""

    def __init__(self):
        self.steps = []
        self._last = None  # (reference time, perf_counter when it ended)

    def _reference(self) -> float:
        if self._last is not None and perf_counter() - self._last[1] < REUSE_S:
            return self._last[0]
        ref = reference()
        self._last = (ref, perf_counter())
        return ref

    @contextlib.contextmanager
    def step(self):
        """Time the body; yields a list that receives (measured s, host s)."""
        before = self._reference()
        out = []
        t0 = perf_counter()
        try:
            yield out
        finally:
            measured = perf_counter() - t0
            self._last = None
            after = self._reference()
            out[:] = [measured, measured * REF_NOMINAL_S * 2.0 / (before + after)]
            self.steps.append(tuple(out))

    def totals(self) -> tuple[float, float]:
        """Summed (measured s, reference-host s) of every step so far."""
        return sum(s[0] for s in self.steps), sum(s[1] for s in self.steps)
