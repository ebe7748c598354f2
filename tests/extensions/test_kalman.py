"""Unit tests for the Kalman workload predictor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.extensions.kalman import RatePredictor, ScalarKalmanFilter


class TestScalarKalmanFilter:
    def _filter(self, q=0.01, r=0.1):
        return ScalarKalmanFilter(process_variance=q, measurement_variance=r)

    def test_first_measurement_initializes(self):
        kf = self._filter()
        assert kf.update(2.0) == 2.0
        assert kf.estimate == 2.0

    def test_converges_to_constant_signal(self):
        kf = self._filter()
        for _ in range(100):
            estimate = kf.update(3.0)
        assert estimate == pytest.approx(3.0)

    def test_smooths_noise(self):
        rng = np.random.default_rng(7)
        kf = self._filter(q=0.001, r=0.5)
        measurements = 2.0 + 0.5 * rng.standard_normal(300)
        estimates = [kf.update(max(0.0, m)) for m in measurements]
        tail = np.array(estimates[100:])
        # The filtered series is much tighter than the raw one.
        assert tail.std() < 0.5 * np.array(measurements[100:]).std()
        assert tail.mean() == pytest.approx(2.0, abs=0.2)

    def test_tracks_step_change(self):
        kf = self._filter(q=0.05, r=0.1)
        for _ in range(20):
            kf.update(1.0)
        for _ in range(40):
            estimate = kf.update(2.0)
        assert estimate == pytest.approx(2.0, abs=0.1)

    def test_gain_between_zero_and_one(self):
        kf = self._filter()
        kf.update(1.0)
        assert 0.0 < kf.gain < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalarKalmanFilter(process_variance=0.0, measurement_variance=0.1)
        kf = self._filter()
        with pytest.raises(ConfigurationError):
            kf.update(-1.0)


class TestRatePredictor:
    def test_observe_and_estimate(self):
        predictor = RatePredictor()
        predictor.observe(2.0)
        predictor.observe(2.2)
        assert 1.9 < predictor.estimate < 2.2

    def test_reset_forgets_history(self):
        predictor = RatePredictor()
        predictor.observe(2.0)
        predictor.reset()
        assert predictor.estimate is None
        assert predictor.observe(5.0) == 5.0

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            RatePredictor().observe(0.0)
