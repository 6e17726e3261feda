"""Host speed probe, standard library only so that it can start first in a
fresh interpreter.

On a host shared with other tenants the same work runs at speeds up to 2x
apart, flipping every few seconds and drifting over minutes. While active,
a SIGALRM handler times a fixed tiny loop every PROBE_INTERVAL_S (about 1%
of the run); the loop's mean time over a stretch of work tracks how much
slower than nominal the host ran that work (see README).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 5000
NOMINAL_PROBE_S = 0.0002  # probe loop time on a quiet 2.0 GHz Xeon core
# Least-squares slope of log work time against log mean probe time, fitted
# on the host above: 1.48-1.51 for each month-compare command and 1.8 for
# quarter-compare (commands slow down more than the probe loop, which never
# leaves L1), 1.05 for the set-up child.
COMMAND_EXPONENT = 1.5
SETUP_EXPONENT = 1.0


def slowdown(mean_probe_s: float, exponent: float) -> float:
    """Factor by which the host ran a stretch of work slower than nominal."""
    return (mean_probe_s / NOMINAL_PROBE_S) ** exponent


class SpeedProbe:
    """Context manager sampling the host's speed while its block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # a block shorter than the interval still gets one sample

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)
