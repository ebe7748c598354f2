"""Contention correction for host timings on a shared machine.

The machines this benchmark runs on are shared: other tenants' load
slows every instruction by up to ~60% in bursts that last from one to
twenty-odd seconds, so the same journey's wall time moves by ±20%
between runs.  A :class:`SpeedProbe` measures that slowdown while the
run goes on: a background thread times a fixed integer loop every
:data:`PERIOD_S`.  The loop allocates nothing the garbage collector
tracks and holds the interpreter lock for well under the switch
interval, so it costs the measured code about 1%.

A window's *speed factor* is the mean loop time inside the window over
:data:`REFERENCE_S`, the loop's time on an idle machine; dividing a
window's wall time by it gives the wall time the window would have
taken without contention.  On six runs of one seed of ``fleet_chaos``
this cut the spread of the run medians from 0.18 to 0.04 (see
``NOTES.md``).  Raw wall times stay in every run's details.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

#: Seconds between probe samples.
PERIOD_S = 0.05
#: Iterations of the probe loop.
LOOP = 8000
#: The probe loop's duration on an idle machine: the floor of the loop
#: time on a 2-vCPU Intel Xeon VM under CPython 3.11.  Corrected times
#: read as seconds on that machine when idle.
REFERENCE_S = 0.45e-3


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


class SpeedProbe:
    """Samples the probe loop from a daemon thread until stopped."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-probe", daemon=True
        )

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.is_set():
            start = clock()
            _loop()
            duration = clock() - start
            # Appending start before duration keeps the two lists the
            # same length whenever the reader sees the duration.
            self._starts.append(start)
            self._durations.append(duration)
            self._stop.wait(PERIOD_S)

    def factor(self, window: Tuple[float, float]) -> float:
        """Slowdown over ``window`` (1.0 = idle machine).

        Uses the samples that started inside the window, widened by two
        periods so windows shorter than the period still get some.
        """
        count = len(self._durations)
        starts = self._starts[:count]
        if not count:
            return 1.0
        lo = bisect.bisect_left(starts, window[0] - 2 * PERIOD_S)
        hi = bisect.bisect_right(starts, window[1] + 2 * PERIOD_S)
        samples = self._durations[lo:hi] or self._durations[:count]
        return statistics.fmean(samples) / REFERENCE_S

    def corrected(self, seconds: float, window: Tuple[float, float]) -> float:
        """``seconds`` measured over ``window``, without the contention."""
        return seconds / self.factor(window)
