"""Host-speed calibration for the timed run.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes (30 000-step pendulum runs read 103 to 143 us/step in
consecutive runs), and the drift is invisible from inside the process:
CPU time moves with wall time and no steal time is reported.  A fixed
reference kernel, small numpy calls inside a Python loop like the
integrator's inner loop, slows down with it.  Measured every
INTERVAL_S seconds next to the workload, the ratio of workload time to
kernel time stayed within 2% (quartile distance over 20 s windows) where raw
times spread 10 to 30%.

The kernel runs from a SIGALRM handler, so it samples the host's speed in
the middle of a long `simulate` call without touching the program.  Time
spent in the kernel is left out of `clock()`, and every timing is scaled
to the speed at which one kernel iteration takes REFERENCE_US: scaled times
read as microseconds on the 2-CPU Xeon host the benchmark was built on, in
its quiet periods.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_US = 15.0
ITERATIONS = 200
INTERVAL_S = 0.1

_A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
_B = np.array([1.0, 2.0, 3.0])


def reference_kernel(iterations: int) -> float:
    """Damped Newton-like updates on a 3x3 system: Python-level calls on
    2- and 3-element arrays, the integrator's own mix of work."""
    x = np.zeros(3)
    acc = 0.0
    for _ in range(iterations):
        r = np.concatenate([_A[:2] @ x - _B[:2], [x[2] - 0.5]])
        norm = float(np.max(np.abs(r)))
        x = x - 0.5 * np.linalg.solve(_A, r)
        acc += math.sin(norm) + 0.5 * norm
    return acc


class SpeedSampler:
    """Samples the reference kernel's speed and keeps its time off the clock."""

    def __init__(self):
        self.at = []  # clock() at each sample
        self.us = []  # kernel microseconds per iteration at each sample
        self.spent = 0.0  # seconds spent in the kernel

    def clock(self) -> float:
        """perf_counter() without the time spent sampling."""
        return perf_counter() - self.spent

    def sample(self) -> float:
        started = perf_counter()
        reference_kernel(ITERATIONS)
        took = perf_counter() - started
        self.at.append(started - self.spent)
        self.us.append(1e6 * took / ITERATIONS)
        self.spent += took
        return self.us[-1]

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_US over the kernel's mean time per iteration between
        clock() times start and end, or at the sample nearest to them."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi > lo:
            return REFERENCE_US / statistics.fmean(self.us[lo:hi])
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.at)]
        if not near:
            raise RuntimeError("no speed sample was taken")
        mid = 0.5 * (start + end)
        best = min(near, key=lambda i: abs(self.at[i] - mid))
        return REFERENCE_US / self.us[best]
