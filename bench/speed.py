"""CPU-speed normalisation of measured times.

The machines this benchmark runs on may change their CPU speed while it runs:
on the 2-CPU KVM guest it was defined on, the same pure-Python loop takes
either about 17 ms or about 25 ms, in stretches of a few seconds, and CPU time
follows wall time, so the cause is the host and not preemption.  A median over
passes does not remove that, because a whole pass can fall into a slow
stretch.

:class:`SpeedMeter` therefore samples the speed while the workload runs.  A
wall-clock interval timer interrupts the main thread every
:data:`INTERVAL_S` seconds and times a fixed probe that makes and reads small
objects and tuples and formats them, as the library does.  Of the probes
tried, this kind of work slowed down the most like the library did; a pure
integer loop slowed 15-25 % less.  A measured interval ``[start, end]`` is
then reported as::

    (end - start - probe time inside it) * mean speed around it

where the speed of one probe is :data:`REFERENCE_PROBE_S` divided by its
time.  The result is in seconds at the reference speed: the time the same
work takes while the probe runs in :data:`REFERENCE_PROBE_S`, which is the
probe's time in the fast state of the machine the benchmark was defined on.
Raw times are kept next to the normalised ones and printed in the readable
report.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL_S = 0.025
# the probe's time, between stretches of library work, in the fast state of
# the defining machine
REFERENCE_PROBE_S = 3.9e-4
# speed samples this far outside a short interval are used for it as well
WINDOW_S = 0.25


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def probe() -> int:
    """Fixed work whose time tracks the CPU speed: small objects made and
    read, then tuples made, flattened and formatted."""
    total = 0
    for cell in [_Cell(i, i + 1, (i, i)) for i in range(300)]:
        total += cell.a + cell.c[1]
    rows = [[(j, i) for j in range(8)] for i in range(150)]
    flat = [pair for row in rows for pair in row]
    return total + len(" ".join(f"{a}:{b}" for a, b in flat[::3]))


class SpeedMeter:
    """Samples the CPU speed while running; normalises measured intervals."""

    def __init__(self):
        self.starts: list[float] = []
        # prefix sums of probe times and speeds, one entry ahead of starts
        self.spent = [0.0]
        self.speeds = [0.0]
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        start = clock()
        probe()
        took = clock() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.spent.append(self.spent[-1] + took)
        self.speeds.append(self.speeds[-1] + REFERENCE_PROBE_S / took)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean probe speed over ``[start - WINDOW_S, end + WINDOW_S]``, or of
        the nearest probe if none fell there; 1.0 before any probe ran."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            if not self.starts:
                return 1.0
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return (self.speeds[hi] - self.speeds[lo]) / (hi - lo)

    def normalized(self, start: float, end: float) -> float:
        """``end - start`` less the probes run inside it, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - (self.spent[hi] - self.spent[lo])
        return own * self.speed(start, end)
