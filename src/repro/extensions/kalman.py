"""Kalman-filter workload prediction (paper §3.1.4, first item).

HARS's stock workload model assumes the next heartbeat period carries the
same work as the last one.  The paper suggests a Kalman filter (as in
Hoffmann et al.'s PTRADE/SEEC line of work) to predict the uncertain
workload more precisely.  This module provides a scalar Kalman filter
over the observed heartbeat rate and a :class:`RatePredictor` the
adaptive manager consults instead of the raw windowed rate — smoothing
measurement noise (noisy per-unit work) while still tracking phase
changes through the process-noise term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass
class ScalarKalmanFilter:
    """One-dimensional Kalman filter with a random-walk process model.

    State: the true heartbeat rate.  ``process_variance`` encodes how
    fast the workload may drift per observation; ``measurement_variance``
    the noise of one windowed rate measurement.
    """

    process_variance: float
    measurement_variance: float
    estimate: Optional[float] = None
    error_variance: float = 1.0

    def __post_init__(self) -> None:
        if self.process_variance <= 0 or self.measurement_variance <= 0:
            raise ConfigurationError("Kalman variances must be positive")
        if self.error_variance <= 0:
            raise ConfigurationError("error variance must be positive")

    def update(self, measurement: float) -> float:
        """Fuse one measurement and return the new estimate."""
        if measurement < 0:
            raise ConfigurationError("rate measurements cannot be negative")
        if self.estimate is None:
            self.estimate = measurement
            self.error_variance = self.measurement_variance
            return self.estimate
        # Predict: random walk — the estimate persists, uncertainty grows.
        predicted_variance = self.error_variance + self.process_variance
        # Update.
        gain = predicted_variance / (
            predicted_variance + self.measurement_variance
        )
        self.estimate = self.estimate + gain * (measurement - self.estimate)
        self.error_variance = (1.0 - gain) * predicted_variance
        return self.estimate

    @property
    def gain(self) -> float:
        """Steady-state-ish gain (diagnostic)."""
        predicted = self.error_variance + self.process_variance
        return predicted / (predicted + self.measurement_variance)


#: Heartbeat-rate measurement noise (standard deviation) as a fraction of
#: the current rate.
RELATIVE_MEASUREMENT_NOISE = 0.15

#: Heartbeat-rate process noise (standard deviation) as a fraction of the
#: current rate.
RELATIVE_PROCESS_NOISE = 0.05


class RatePredictor:
    """Kalman-smoothed view of an application's heartbeat rate.

    :data:`RELATIVE_PROCESS_NOISE` and :data:`RELATIVE_MEASUREMENT_NOISE`
    are standard deviations as fractions of the current rate, so the
    filter adapts its scale to the application automatically.
    """

    def __init__(self):
        self._filter: Optional[ScalarKalmanFilter] = None

    def observe(self, rate: float) -> float:
        """Feed one windowed rate; returns the smoothed rate."""
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self._filter is None:
            self._filter = ScalarKalmanFilter(
                process_variance=(rate * RELATIVE_PROCESS_NOISE) ** 2,
                measurement_variance=(
                    rate * RELATIVE_MEASUREMENT_NOISE
                ) ** 2,
            )
        return self._filter.update(rate)

    def reset(self) -> None:
        """Forget history — called after a system-state change, where the
        old rate estimate no longer applies."""
        self._filter = None

    @property
    def estimate(self) -> Optional[float]:
        return self._filter.estimate if self._filter else None
