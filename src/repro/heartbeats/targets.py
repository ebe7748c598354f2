"""Performance-target windows and satisfaction classification.

The paper gives each application a target window ``[t.min, t.max]``
around a center ``t.avg`` (e.g. 50 % ± 5 % of the maximum achievable
heartbeat rate).  Adaptation triggers when the observed rate leaves the
window (``|rate − t.avg| > (t.max − t.min)/2``, Algorithm 1 line 7), and
the MP-HARS decision table (Table 4.3) classifies each application as
*underperforming*, *achieving*, or *overperforming*.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


class Satisfaction(enum.Enum):
    """How an observed rate relates to the target window."""

    UNDERPERF = "underperf"
    ACHIEVE = "achieve"
    OVERPERF = "overperf"


@dataclass(frozen=True)
class PerformanceTarget:
    """A target window in heartbeats per second.

    ``avg`` is the normalization point ``g`` of the paper's normalized
    performance ``min(g, h)/g``.
    """

    min_rate: float
    avg_rate: float
    max_rate: float

    def __post_init__(self) -> None:
        if not 0 < self.min_rate <= self.avg_rate <= self.max_rate:
            raise ConfigurationError(
                f"invalid target window ({self.min_rate}, {self.avg_rate}, "
                f"{self.max_rate})"
            )

    @classmethod
    def fraction_of(
        cls, max_achievable: float, fraction: float, tolerance: float = 0.05
    ) -> "PerformanceTarget":
        """Build the paper's targets: ``fraction ± tolerance`` of the
        maximum achievable rate (default target 50 % ± 5 %, high target
        75 % ± 5 %)."""
        if max_achievable <= 0:
            raise ConfigurationError("max achievable rate must be positive")
        if not 0 < fraction <= 1:
            raise ConfigurationError("fraction must be in (0, 1]")
        if not 0 <= tolerance < fraction:
            raise ConfigurationError("tolerance must be in [0, fraction)")
        return cls(
            min_rate=(fraction - tolerance) * max_achievable,
            avg_rate=fraction * max_achievable,
            max_rate=(fraction + tolerance) * max_achievable,
        )

    @property
    def half_width(self) -> float:
        """``(t.max − t.min)/2`` — the adaptation trigger threshold."""
        return (self.max_rate - self.min_rate) / 2.0

    def out_of_window(self, rate: float) -> bool:
        """Algorithm 1 line 7: does the rate call for adaptation?"""
        return abs(rate - self.avg_rate) > self.half_width

    def classify(self, rate: float) -> Satisfaction:
        """Satisfaction class for Table 4.3 and the behaviour traces."""
        if rate < self.min_rate:
            return Satisfaction.UNDERPERF
        if rate > self.max_rate:
            return Satisfaction.OVERPERF
        return Satisfaction.ACHIEVE

    def normalized_performance(self, rate: float) -> float:
        """The paper's ``min(g, h)/g`` with ``g = t.avg``.

        Overperformance is capped at 1 — "there is no benefit in
        overperformance" (Section 3.1.3).
        """
        if rate < 0:
            raise ConfigurationError("negative rate")
        return min(self.avg_rate, rate) / self.avg_rate


#: Bounds on the latency-pressure multiplier a :class:`DeadlineTarget`
#: applies to the observed rate (guards against a single pathological
#: tail sample slamming the window to an unreachable point).
PRESSURE_BOUNDS = (0.2, 5.0)

#: Rate floor keeping the window well-formed before any observation.
RATE_FLOOR = 1e-9


def recentred_window(rate, tail_s, comfort_s, tolerance, avg_rate):
    """The ``(min, avg, max)`` rate window after one SLO observation.

    The one statement of :meth:`DeadlineTarget.update`'s rule::

        pressure = clamp(tail / comfort, PRESSURE_BOUNDS)
        avg      = max(rate * pressure, RATE_FLOOR)
        window   = (avg * (1 - tolerance), avg, avg * (1 + tolerance))

    With no usable observation — a rate or tail that is not positive,
    NaN included — the window goes permissive ``(RATE_FLOOR, avg_rate,
    inf)``, keeping the previous centre.  Elementwise only (``/``,
    ``*``, ``minimum``, ``maximum``, ``where``), so it takes Python
    floats and numpy arrays alike: a target updates with it one lane at
    a time, the fleet engine every lane at once, with the same floats.
    """
    observed = (rate > 0) & (tail_s > 0)
    low, high = PRESSURE_BOUNDS
    pressure = np.minimum(np.maximum(tail_s / comfort_s, low), high)
    avg = np.maximum(rate * pressure, RATE_FLOOR)
    return (
        np.where(observed, avg * (1.0 - tolerance), RATE_FLOOR),
        np.where(observed, avg, avg_rate),
        np.where(observed, avg * (1.0 + tolerance), math.inf),
    )


class DeadlineTarget:
    """A tail-latency target wearing a :class:`PerformanceTarget` face.

    Serving fleets steer on latency percentiles against a deadline, but
    the whole MAPE-K stack — Analyzer classification, Algorithm 2
    feasibility (``est_rate >= min_rate``), the Table 4.3 decision table,
    the vectorized batch planner — speaks heartbeat-rate windows.  A
    ``DeadlineTarget`` bridges the two: it exposes the same
    ``min_rate`` / ``avg_rate`` / ``max_rate`` window and the same
    ``classify`` / ``out_of_window`` / ``normalized_performance``
    methods, but the window is *derived*, re-centered every tick from
    the observed completion rate and the windowed tail latency:

        pressure = tail / ((1 - slack) * deadline)
        avg_rate = observed_rate * clamp(pressure)

    Tail at the comfort point → the window brackets the observed rate
    (ACHIEVE, hold).  Tail approaching the deadline → the window moves
    above the observed rate (UNDERPERF, grow allocation / frequency).
    Tail far below comfort → the window drops below the observed rate
    (OVERPERF, shrink and save energy).  Unlike
    :class:`PerformanceTarget` this object is deliberately mutable —
    the target *is* the controller's moving setpoint.
    """

    def __init__(
        self,
        deadline_s: float,
        percentile: float = 95.0,
        slack: float = 0.4,
        tolerance: float = 0.15,
    ):
        if deadline_s <= 0:
            raise ConfigurationError("deadline must be positive")
        if not 0 < percentile <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if not 0 < slack < 1:
            raise ConfigurationError("slack must be in (0, 1)")
        if not 0 < tolerance < 1:
            raise ConfigurationError("tolerance must be in (0, 1)")
        self.deadline_s = deadline_s
        self.percentile = percentile
        self.slack = slack
        self.tolerance = tolerance
        # Permissive until the first update: anything classifies as
        # ACHIEVE, so an idle or warming-up lane never triggers
        # adaptation on no data.
        self.min_rate = RATE_FLOOR
        self.avg_rate = 1.0
        self.max_rate = float("inf")
        #: Latest tail latency fed in (telemetry convenience).
        self.last_tail_s: float | None = None

    @property
    def comfort_s(self) -> float:
        """The tail latency the controller steers toward."""
        return (1.0 - self.slack) * self.deadline_s

    def update(
        self, observed_rate: float | None, tail_latency_s: float | None
    ) -> None:
        """Re-center the rate window from the current SLO observation.

        With no usable observation (an idle lane, or one that has not
        yet filled a rate window) the target goes permissive instead of
        keeping a stale setpoint.  The rule is :func:`recentred_window`,
        which the fleet engine applies to many lanes at once.
        """
        self.last_tail_s = tail_latency_s
        window = recentred_window(
            math.nan if observed_rate is None else observed_rate,
            math.nan if tail_latency_s is None else tail_latency_s,
            self.comfort_s,
            self.tolerance,
            self.avg_rate,
        )
        self.min_rate, self.avg_rate, self.max_rate = map(float, window)

    @property
    def half_width(self) -> float:
        return (self.max_rate - self.min_rate) / 2.0

    def out_of_window(self, rate: float) -> bool:
        """Adaptation trigger — asymmetric windows use classification."""
        return self.classify(rate) is not Satisfaction.ACHIEVE

    def classify(self, rate: float) -> Satisfaction:
        if rate < self.min_rate:
            return Satisfaction.UNDERPERF
        if rate > self.max_rate:
            return Satisfaction.OVERPERF
        return Satisfaction.ACHIEVE

    def normalized_performance(self, rate: float) -> float:
        """Same ``min(g, h)/g`` shape the planners expect (and compute
        inline on the vector path — the formulas must stay in lockstep).
        """
        if rate < 0:
            raise ConfigurationError("negative rate")
        return min(self.avg_rate, rate) / self.avg_rate
