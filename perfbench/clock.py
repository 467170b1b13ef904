"""Host-speed-normalised timing.

The benchmark is meant for shared hosts, whose speed can swing by up to
2x within seconds as neighbours come and go: the same fig5 run took
1.2 s and 2.2 s a minute apart on a shared 2-vCPU VM.  Wall times there
measure the neighbours as much as the program.

While a workload runs, a ``SIGALRM`` timer runs a fixed pure-Python
:func:`kernel` every :data:`PERIOD_S` seconds of wall time.  The mean
kernel time over a window measures the host's speed in that window.  A
wall duration ``d`` measured there is reported as
``d * NOMINAL_S / mean``: the time the same work takes on a host where
the kernel takes :data:`NOMINAL_S` seconds.  A change to the program
moves these times in the same proportion as wall time; a change of host
speed moves the kernel and the work alike and cancels.  On the VM above
this cut the run-to-run spread of that fig5 run from ~15% to ~4%
(coefficient of variation).

The kernel is the benchmark's own code and never calls the program.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from itertools import accumulate

#: Kernel seconds of the reference host the figures are scaled to.
NOMINAL_S = 100e-6
#: Wall seconds between two kernel runs (~2% of the wall at NOMINAL_S).
PERIOD_S = 0.005
#: Shortest window whose kernel runs set the speed of one interval.
WINDOW_S = 1.0


def kernel() -> int:
    """A fixed mix of interpreter work: dict updates, tuples, sorting."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(300):
        key = (i * 7919) % 61
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    items = sorted(table.items(), key=lambda kv: kv[1])
    return acc + items[0][1]


class ReferenceClock:
    """Runs :func:`kernel` on a wall-clock timer while it is entered.

    Times are ``time.perf_counter()`` readings taken by the caller while
    the clock runs; :meth:`reference` turns an interval into reference
    seconds.  Only the main thread runs the kernel (Python runs signal
    handlers there), so other threads keep working meanwhile.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self._starts: list[float] = []
        self._seconds: list[float] = []
        self._prefix: list[float] | None = None
        self._previous = None

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)  # so that every run has a tick
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self._starts.append(start)
        self._seconds.append(time.perf_counter() - start)
        self._prefix = None

    @property
    def ticks(self) -> int:
        return len(self._starts)

    def _range(self, start: float, end: float) -> tuple[int, int, float]:
        """``(first, last, kernel seconds)`` of the ticks started in ``[start, end)``."""
        if self._prefix is None:
            self._prefix = [0.0, *accumulate(self._seconds)]
        first = bisect_left(self._starts, start)
        last = bisect_left(self._starts, end)
        return first, last, self._prefix[last] - self._prefix[first]

    def kernel_seconds(self, start: float, end: float) -> float:
        """Seconds the kernel ran inside ``[start, end)``."""
        return self._range(start, end)[2]

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean kernel time around ``[start, end)``.

        The window is widened to at least ``WINDOW_S`` around the
        interval's middle, and to the whole run if it holds no tick.
        """
        if end - start < WINDOW_S:
            middle = (start + end) / 2.0
            start, end = middle - WINDOW_S / 2.0, middle + WINDOW_S / 2.0
        first, last, seconds = self._range(start, end)
        if last == first:
            first, last, seconds = self._range(float("-inf"), float("inf"))
        return NOMINAL_S * (last - first) / seconds

    def reference(self, start: float, end: float, *, exclusive: bool = True) -> float:
        """Reference seconds of the wall interval ``[start, end)``.

        With ``exclusive`` the kernel's own runs inside the interval are
        taken out first (right when the interval is work of the main
        thread, which the kernel paused).
        """
        wall = end - start
        if exclusive:
            wall -= self.kernel_seconds(start, end)
        return wall * self.scale(start, end)
