"""Heartbeat monitor: the observation stage of self-adaptive computing.

A :class:`HeartbeatMonitor` pairs a :class:`HeartbeatLog` with a
:class:`PerformanceTarget` and answers the questions the runtime managers
ask every adaptation period: what is the current rate, is it inside the
window, and — for the experiments — what was the time-averaged normalized
performance of the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.heartbeats.record import HeartbeatLog
from repro.heartbeats.targets import PerformanceTarget, Satisfaction

#: Default trailing window (beats) over which rates are measured.
DEFAULT_RATE_WINDOW = 5


@dataclass(frozen=True)
class Observation:
    """One adaptation-period observation handed to a runtime manager."""

    index: int
    time_s: float
    rate: float
    satisfaction: Satisfaction


def elapsed_span_rate(now_s, span_s, count_since, start_s=0.0):
    """Beats per second over the trailing window ``(now_s - span_s, now_s]``::

        start = max(now_s - span_s, start_s)
        rate  = count_since(start) / (now_s - start)

    The divisor is the window's *elapsed* span: a window cut short by
    the stream's start (``start_s``) covers less than ``span_s``, and
    the full span would understate the rate — 10 beats/s observed 0.3 s
    into a run would read 3 over a 1 s window.  Elementwise: floats for
    :meth:`HeartbeatMonitor.timed_rate`, arrays for the fleet engine.
    NaN where the window has no elapsed time.
    """
    start = np.maximum(now_s - span_s, start_s)
    elapsed = now_s - start
    return count_since(start) / np.where(elapsed > 0, elapsed, np.nan)


class HeartbeatMonitor:
    """Windowed-rate observer over one application's heartbeat stream."""

    def __init__(
        self,
        log: HeartbeatLog,
        target: PerformanceTarget,
        rate_window: int = DEFAULT_RATE_WINDOW,
    ):
        if rate_window < 1:
            raise ConfigurationError("rate window must be at least 1")
        self.log = log
        self.target = target
        self.rate_window = rate_window

    def current_rate(self) -> Optional[float]:
        """Trailing-window rate, or ``None`` until enough beats exist."""
        return self.log.window_rate(self.rate_window)

    def observe(self) -> Optional[Observation]:
        """Snapshot rate + satisfaction at the latest heartbeat."""
        rate = self.current_rate()
        last = self.log.last
        if rate is None or last is None:
            return None
        return Observation(
            index=last.index,
            time_s=last.time_s,
            rate=rate,
            satisfaction=self.target.classify(rate),
        )

    def needs_adaptation(self) -> bool:
        """Algorithm 1 line 7 over the current window rate."""
        rate = self.current_rate()
        return rate is not None and self.target.out_of_window(rate)

    def timed_rate(
        self, now_s: float, span_s: float, start_s: float = 0.0
    ) -> Optional[float]:
        """Completion rate over the trailing timed window ``(now_s - span_s,
        now_s]``, in beats per second (:func:`elapsed_span_rate`).

        Returns ``None`` when the window has no elapsed time yet.
        """
        if span_s <= 0:
            raise ConfigurationError("span must be positive")
        rate = elapsed_span_rate(
            now_s,
            span_s,
            lambda window_start: self.log.count_between(window_start, now_s),
            start_s,
        )
        return None if rate != rate else float(rate)

    def timed_rate_series(
        self, span_s: float, end_s: float
    ) -> List[Tuple[float, float]]:
        """``(window_end_s, rate)`` per tumbling window of ``span_s``.

        Windows tile ``[0, end_s)``; the final window — cut short
        when the run ends mid-window — is scaled by its elapsed span,
        the same partial-window correction as :meth:`timed_rate`.
        """
        if span_s <= 0:
            raise ConfigurationError("span must be positive")
        if end_s <= 0.0:
            return []
        series: List[Tuple[float, float]] = []
        window_start = 0.0
        while window_start < end_s - 1e-12:
            window_end = min(window_start + span_s, end_s)
            elapsed = window_end - window_start
            count = self.log.count_between(window_start, window_end)
            series.append((window_end, count / elapsed))
            window_start += span_s
        return series

    def last_beat_age_s(self, now_s: float) -> Optional[float]:
        """Seconds since the newest logged heartbeat (``None`` before any).

        Clamped at zero: a beat emitted at the end of the current engine
        tick carries a timestamp slightly ahead of the mid-tick clock.
        """
        last = self.log.last
        if last is None:
            return None
        return max(0.0, now_s - last.time_s)

    # -- run-level metrics --------------------------------------------------

    def normalized_performance_series(self) -> List[Tuple[int, float]]:
        """``(index, min(g, h)/g)`` per windowed measurement."""
        return [
            (index, self.target.normalized_performance(rate))
            for index, rate in self.log.rate_series(self.rate_window)
        ]

    def mean_normalized_performance(self) -> float:
        """Run-level normalized performance: the numerator of perf/watt.

        Averages ``min(g, h)/g`` across every windowed rate measurement;
        a run pinned below target scores < 1, a run at-or-above scores 1.
        """
        series = self.normalized_performance_series()
        if not series:
            raise ConfigurationError(
                f"{self.log.app_name}: too few heartbeats for a rate window"
            )
        return sum(v for _, v in series) / len(series)

    def satisfaction_series(self) -> List[Tuple[int, Satisfaction]]:
        """Per-measurement satisfaction classes (for behaviour traces)."""
        return [
            (index, self.target.classify(rate))
            for index, rate in self.log.rate_series(self.rate_window)
        ]
