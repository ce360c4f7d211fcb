"""Host-speed calibration for the timings the benchmark reports.

On a shared machine the speed of one core drifts by up to 2x, both within
a second and over tens of seconds, far more than any median over passes
can remove. The benchmark therefore times a short fixed kernel
(small-matrix numpy arithmetic driven from a Python loop, the same mix of
work as ekfcert's integrators, but no ekfcert code) before, after and,
from an interval timer, every ``INTERVAL_S`` during each timed operation.
The operation's raw seconds, minus the kernels run inside it, are scaled
to a host on which the kernel takes ``REF_S``:

    scaled = raw * REF_S * mean(1 / kernel_i)

which counts each slice of the operation at the speed the host had then.
A change to ekfcert cannot change the kernel, so scaled times move only
with the program's own work.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_S = 0.005         # kernel seconds on the nominal host
KERNEL_STEPS = 150
INTERVAL_S = 0.1

# bound now, so that a kernel run inside a traced pass is not counted as work
_solve = np.linalg.solve
_eigvalsh = np.linalg.eigvalsh


def kernel_s() -> float:
    """Seconds for one run of the calibration kernel."""
    A = np.array([[0.0, 1.0], [-1.0, -0.15]])
    Q = np.eye(2)
    P = np.eye(2)
    x = np.array([0.3, 0.2])
    h = 1e-3
    t0 = time.perf_counter()
    for _ in range(KERNEL_STEPS):
        x = x + h * (A @ x - P @ x)
        P = P + h * (A @ P + P @ A.T + Q - P @ P)
        P = 0.5 * (P + P.T)
        _solve(P, x)
        _eigvalsh(P)
    return time.perf_counter() - t0


def factor(kernels) -> float:
    """Scale from raw to nominal-host seconds, given kernel samples of the span."""
    return REF_S * statistics.fmean(1.0 / k for k in kernels)


class Timing:
    """Raw and host-scaled seconds of one measured interval."""

    raw = 0.0
    scaled = 0.0


class HostSpeed:
    """Measures intervals with host-speed kernels around and inside them."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0   # seconds of kernels run from the timer so far

    def kernel(self) -> float:
        k = kernel_s()
        self.samples.append(k)
        return k

    @contextlib.contextmanager
    def measure(self):
        """Time the block, sampling the kernel before, during and after it."""
        timing = Timing()
        kernels = [self.kernel()]
        inside_before = self.inside_s

        def on_timer(signum, frame):
            t0 = time.perf_counter()
            kernels.append(self.kernel())
            self.inside_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_timer)
        try:
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            try:
                yield timing
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                timing.raw = time.perf_counter() - t0 - (self.inside_s - inside_before)
        finally:
            signal.signal(signal.SIGALRM, previous)
            kernels.append(self.kernel())
            timing.scaled = timing.raw * factor(kernels)
