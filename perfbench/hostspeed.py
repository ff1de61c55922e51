"""Host-speed calibration: a fixed reference kernel sampled while ops run.

On a shared machine the host's speed changes by up to a factor of two within
a second and drifts over minutes (other tenants share the physical cores),
and op times follow it.  While a `Sampler` is active, a SIGALRM handler runs
the reference kernel every INTERVAL_S; the handler runs in the main thread
between bytecodes, in the middle of the op being measured.  An interval of
op time is then reported as

    (wall time - kernel time inside it) * REFERENCE_NOMINAL_S / (mean kernel time around it)

that is, in seconds on a host whose speed makes the kernel take
REFERENCE_NOMINAL_S.  The kernel is a Python loop of small numpy products
(Heun steps of a two-state linear system), the same kind of work as the RK4
loops of sampledlq, whose speed it tracks much more closely than a loop of
plain Python floats does.  It does not use sampledlq, so a change to the
library cannot change it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

REFERENCE_STEPS = 150
# mean kernel time on the baseline host (2 vCPU Intel Xeon, one BLAS thread)
REFERENCE_NOMINAL_S = 1.1e-3
INTERVAL_S = 0.025
# kernel samples this close to an interval also set its speed, so that short
# ops with no sample inside still get one
PAD_S = 2 * INTERVAL_S


_A = np.array([[0.0, 1.0], [-1.0, -0.5]])


def reference_kernel() -> float:
    """Seconds taken by the fixed reference loop."""
    y = np.ones((2, 3))
    h = 1e-3
    start = perf_counter()
    for _ in range(REFERENCE_STEPS):
        k1 = _A @ y
        k2 = _A @ (y + h * k1)
        y = y + 0.5 * h * (k1 + k2)
    return perf_counter() - start


class Sampler:
    """While entered, runs the reference kernel every INTERVAL_S of wall time."""

    def __init__(self):
        self.starts = []   # perf_counter() at each sample's start, increasing
        self.kernels = []  # seconds each sample took
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self.kernels.append(reference_kernel())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> list:
        """(start, seconds) of the samples that began within [start, end]."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return list(zip(self.starts[lo:hi], self.kernels[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the kernel, scaled to the nominal host speed."""
        work = end - start - sum(k for _, k in self.inside(start, end))
        near = [k for _, k in self.inside(start - PAD_S, end + PAD_S)] or self.kernels
        speed = statistics.fmean(near) if near else reference_kernel()
        return work * REFERENCE_NOMINAL_S / speed
