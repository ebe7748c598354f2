"""Sliding tail-latency windows — the fleet's replacement for rate windows.

Single-board HARS steers on heartbeat-*rate* windows; a serving fleet
steers on *latency percentiles* against a deadline.  :class:`SloWindow`
is the observation half of that: a bounded sliding window of request
latencies with exact percentile queries (kept sorted as it fills, so a
query never sorts), plus cumulative completion and deadline-miss
counters.

The percentile uses the same linear interpolation as
``statistics.quantiles(data, n=100, method="inclusive")`` — rank
``(n - 1) * p / 100`` over the sorted window — so the property tests can
assert exactness against the standard library on random traces.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.errors import ConfigurationError


def percentile(data: Sequence[float], p: float) -> float:
    """Exact ``p``-th percentile of ``data`` (inclusive interpolation).

    Matches ``statistics.quantiles(data, n=100, method="inclusive")`` at
    integer percentiles; defined for any ``p`` in [0, 100] and any
    non-empty ``data`` (including a single sample, where every
    percentile is that sample).
    """
    if not data:
        raise ConfigurationError("percentile of an empty sample")
    return _ranked(sorted(data), p)


def _ranked(ordered: Sequence[float], p: float) -> float:
    """:func:`percentile` of an already sorted, non-empty ``ordered``."""
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError(f"percentile {p} not in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lower = math.floor(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def recovery_time_s(
    completions: Sequence[tuple],
    event_s: float,
    window: int = 100,
    max_miss_ratio: float = 0.05,
) -> Optional[float]:
    """Time from ``event_s`` until the fleet's SLO recovers.

    ``completions`` is an iterable of ``(finish_s, missed)`` pairs (any
    order).  Scanning completions after the event in finish order, the
    SLO counts as recovered at the first completion whose trailing
    ``window`` completions miss at most ``max_miss_ratio`` — the metric
    ``bench_fleet_chaos.py`` reports for a crash wave.  Returns None
    when the stream never recovers (or has fewer than ``window``
    post-event completions).
    """
    if window < 1:
        raise ConfigurationError("recovery window must be >= 1")
    if not 0 <= max_miss_ratio <= 1:
        raise ConfigurationError("max_miss_ratio must be in [0, 1]")
    after = sorted(
        (pair for pair in completions if pair[0] >= event_s),
        key=lambda pair: pair[0],
    )
    trailing: Deque[bool] = deque(maxlen=window)
    for finish_s, missed in after:
        trailing.append(bool(missed))
        if len(trailing) == window:
            if sum(trailing) <= max_miss_ratio * window:
                return finish_s - event_s
    return None


class SloWindow:
    """Sliding window of request latencies with percentile queries.

    The window holds the most recent ``max_samples`` latencies (the
    control signal); ``observed_total`` / ``miss_total`` count the whole
    stream (the accounting signal).

    Beside the arrival-ordered deque the window keeps the same samples
    as a sorted list, updated as it fills: ``observe`` deletes the
    evicted sample at its ``bisect_left`` position and inserts the new
    one with ``insort``, so a percentile query reads two entries
    instead of sorting the window.  Equal samples stay in arrival order
    in the sorted list (insertion goes right of its equals, eviction
    takes the leftmost), so the sorted list is always exactly
    ``sorted(deque)`` and every percentile is bit-identical to
    :func:`percentile` over the deque.
    """

    def __init__(self, max_samples: int = 256):
        if max_samples < 2:
            raise ConfigurationError("SLO window needs at least 2 samples")
        self.max_samples = max_samples
        self._window: Deque[float] = deque(maxlen=max_samples)
        self._sorted: List[float] = []
        self.observed_total = 0
        self.miss_total = 0

    def observe(self, latency_s: float, missed: bool = False) -> None:
        """Record one completed request."""
        if latency_s < 0:
            raise ConfigurationError(f"negative latency {latency_s}")
        window = self._window
        ordered = self._sorted
        if len(window) == self.max_samples:
            del ordered[bisect_left(ordered, window[0])]
        window.append(latency_s)
        insort(ordered, latency_s)
        self.observed_total += 1
        if missed:
            self.miss_total += 1

    def __len__(self) -> int:
        return len(self._window)

    def percentile(self, p: float) -> Optional[float]:
        """Windowed percentile, or ``None`` before the first sample."""
        if not self._sorted:
            return None
        return _ranked(self._sorted, p)

    def quantile_summary(self) -> Optional[dict]:
        """The P50/P95/P99 triple dashboards plot, or ``None`` if empty."""
        ordered = self._sorted
        if not ordered:
            return None
        return {
            "p50": _ranked(ordered, 50.0),
            "p95": _ranked(ordered, 95.0),
            "p99": _ranked(ordered, 99.0),
        }

    @property
    def miss_ratio(self) -> float:
        """Deadline misses over all completions (0 before any)."""
        if self.observed_total == 0:
            return 0.0
        return self.miss_total / self.observed_total
