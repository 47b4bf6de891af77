"""Sample the shared host's speed while a sweep runs.

The reference host is a 2-vCPU KVM guest whose physical cores are
shared with other tenants.  A busy neighbour slows every instruction
by up to ~1.7x, switching on and off every few tens of milliseconds
and staying on for seconds at a time.  Repeating sweeps cannot average
that out, so the sweep process samples the host's speed continuously:
a ``SIGALRM`` interval timer runs a fixed pure-Python kernel of about
0.2 ms (calls, dict traffic, integer arithmetic — what the simulator's
interpreter-bound paths do) every :data:`PERIOD_S`.  The kernel never
touches the program under test.

:meth:`SpeedSampler.window` turns an interval of host time into
``(raw_s, scaled_s)``: the time spent outside the sampler's own kernel,
and that time scaled to the reference speed by integrating the sampled
speed over the interval.  On an undisturbed core the two agree.

Standard library only, so that it can start before the heavy imports
whose cost ``setup_s`` measures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Sampling period of the interval timer.
PERIOD_S = 0.025

#: What :func:`kernel` takes on an undisturbed core of the reference
#: host (a 2-vCPU Xeon, Sapphire Rapids, under KVM).
REFERENCE_KERNEL_S = 160e-6


def _mix(acc: int, i: int) -> int:
    return (acc * 31 + i) & 0xFFFFFF


def kernel(size: int = 600) -> None:
    """The fixed probe kernel."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(size):
        key = (i * 2654435761) & 1023
        acc = _mix(acc + table.get(key, 0), i)
        table[key] = acc & 0xFFFF


class SpeedSampler:
    """Runs :func:`kernel` on a timer and integrates the speed it reads."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        """Take one sample now and then one every :data:`PERIOD_S`."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and restore the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, index: int) -> float:
        """Scale factor to the reference speed from sample ``index``."""
        return REFERENCE_KERNEL_S / self.durations[index]

    def median_speed(self) -> float:
        """The speed factor of the median sample."""
        return REFERENCE_KERNEL_S / statistics.median(self.durations)

    def window(self, begin: float, end: float) -> tuple[float, float]:
        """``(raw_s, scaled_s)`` of the ``perf_counter`` interval.

        ``raw_s`` excludes the kernel's own runs inside the interval.
        Each gap between samples is scaled by the mean speed of the two
        samples around it; a gap before the first sample or after the
        last takes the nearest sample's speed.
        """
        count = len(self.starts)
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        raw = scaled = 0.0
        cursor = begin
        for index in range(lo, hi + 1):
            stop = self.starts[index] if index < hi else end
            gap = max(stop - cursor, 0.0)
            around = [i for i in (index - 1, index) if 0 <= i < count]
            factor = sum(self.speed(i) for i in around) / len(around)
            raw += gap
            scaled += gap * factor
            if index < hi:
                cursor = self.starts[index] + self.durations[index]
        return raw, scaled
