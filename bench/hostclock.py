"""Time in reference seconds: wall time corrected for the host's speed.

The benchmark's host shares its processor with other work, and the speed
of the same Python code drifts over seconds to minutes: a fixed dictionary
loop ran at 14 to 26 iterations a second within one minute, and census
runs of seven seeds took 0.58 to 1.22 domains per wall second.  Raw wall
times of identical work then differ by more than any useful bound.

So while a run measures, a timer signal runs a fixed reference loop every
PERIOD seconds (about 0.6 ms of work each time) and records its rate.  An
interval of wall time, less the time spent in the loop, is scaled by the
loop's rate around that interval divided by REFERENCE_RATE: a second of
reference time is the time the host needs for REFERENCE_RATE loops.  A
change that makes helmcut faster or slower moves reference time as it
moves wall time; a host that slows all code down moves reference time far
less.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.05  # seconds between samples
WINDOW = 0.25  # samples this far either side of an interval count for it
REFERENCE_RATE = 2000.0  # reference loops per second that define one reference second


def reference_loop() -> None:
    """Fixed work much like helmcut's own: a dict keyed by int tuples."""
    d = {}
    for i in range(2000):
        d[(i * 7919) % 10007, i & 7] = i


class HostClock:
    """Context manager that samples the host's speed on SIGALRM.

    mark() takes a reading; after the context has exited, reference_s(a, b)
    converts the interval between two readings.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.rates: list[float] = []
        self.spent = 0.0  # wall seconds spent in the reference loop
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.rates.append(1.0 / (end - start))
        self.spent += end - start

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def net_time(self) -> float:
        """A wall clock that stands still while the reference loop runs."""
        return time.perf_counter() - self.spent

    def reference_s(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Reference seconds between readings a and b: their wall time less
        the sampling inside it, times the trimmed mean rate of the samples
        within WINDOW of the interval, over REFERENCE_RATE."""
        wall = b[0] - a[0] - (b[1] - a[1])
        lo = bisect.bisect_left(self.times, a[0] - WINDOW)
        hi = bisect.bisect_right(self.times, b[0] + WINDOW)
        rates = sorted(self.rates[lo:hi])
        cut = len(rates) // 10
        rates = rates[cut : len(rates) - cut]
        return wall * (sum(rates) / len(rates)) / REFERENCE_RATE
