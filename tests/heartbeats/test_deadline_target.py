"""DeadlineTarget: a latency SLO wearing the rate-window interface."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.heartbeats.targets import (
    DeadlineTarget,
    Satisfaction,
    recentred_window,
)


@pytest.fixture
def target():
    # deadline 1 s, slack 0.4 -> comfort point 0.6 s.
    return DeadlineTarget(deadline_s=1.0, slack=0.4, tolerance=0.15)


class TestDerivedWindow:
    def test_permissive_before_first_update(self, target):
        # Any *observed* rate is ACHIEVE (literal zero never reaches
        # classify — the Analyzer screens out rate <= 0 upstream).
        for rate in (0.001, 5.0, 1e9):
            assert target.classify(rate) is Satisfaction.ACHIEVE
            assert not target.out_of_window(rate)

    def test_tail_at_comfort_point_holds(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.6)
        assert target.avg_rate == pytest.approx(10.0)
        assert target.classify(10.0) is Satisfaction.ACHIEVE

    def test_tail_near_deadline_demands_more_rate(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.95)
        # pressure = 0.95 / 0.6 -> window sits above the observed rate.
        assert target.avg_rate > 10.0
        assert target.classify(10.0) is Satisfaction.UNDERPERF

    def test_fast_tail_allows_shrinking(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.1)
        assert target.avg_rate < 10.0
        assert target.classify(10.0) is Satisfaction.OVERPERF

    def test_pressure_clamped(self, target):
        target.update(observed_rate=10.0, tail_latency_s=1e6)
        assert target.avg_rate == pytest.approx(50.0)  # 5x clamp
        target.update(observed_rate=10.0, tail_latency_s=1e-9)
        assert target.avg_rate == pytest.approx(2.0)  # 0.2x clamp

    def test_window_tolerance(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.6)
        assert target.min_rate == pytest.approx(8.5)
        assert target.max_rate == pytest.approx(11.5)
        assert target.half_width == pytest.approx(1.5)

    def test_no_data_goes_permissive_again(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.9)
        assert target.out_of_window(10.0)
        target.update(observed_rate=None, tail_latency_s=None)
        assert not target.out_of_window(10.0)
        assert target.last_tail_s is None

    def test_zero_rate_goes_permissive(self, target):
        target.update(observed_rate=0.0, tail_latency_s=0.5)
        assert target.classify(123.0) is Satisfaction.ACHIEVE


class TestPlannerInterface:
    """The methods Algorithm 2 / the vector batch planner consume."""

    def test_normalized_performance_shape(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.6)
        assert target.normalized_performance(20.0) == 1.0
        assert target.normalized_performance(5.0) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            target.normalized_performance(-1.0)

    def test_out_of_window_matches_classify(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.6)
        for rate in (5.0, 8.5, 10.0, 11.5, 20.0):
            assert target.out_of_window(rate) == (
                target.classify(rate) is not Satisfaction.ACHIEVE
            )

    def test_comfort_point(self, target):
        assert target.comfort_s == pytest.approx(0.6)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": 1.0, "percentile": 0.0},
            {"deadline_s": 1.0, "percentile": 101.0},
            {"deadline_s": 1.0, "slack": 0.0},
            {"deadline_s": 1.0, "slack": 1.0},
            {"deadline_s": 1.0, "tolerance": 0.0},
            {"deadline_s": 1.0, "tolerance": 1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            DeadlineTarget(**kwargs)


class TestRecentredWindow:
    """``recentred_window`` is the update rule for one lane and for
    arrays of lanes alike."""

    CASES = [
        (10.0, 0.6),
        (10.0, 0.95),
        (10.0, 1e6),
        (3.0, 1e-9),
        (0.0, 0.5),
        (10.0, 0.0),
        (math.nan, 0.5),
        (10.0, math.nan),
    ]

    def test_arrays_match_one_lane_at_a_time(self):
        rate, tail = (np.array(column) for column in zip(*self.CASES))
        comfort = np.full(rate.shape, 0.6)
        tolerance = np.full(rate.shape, 0.15)
        avg = np.full(rate.shape, 7.0)
        lanes = recentred_window(rate, tail, comfort, tolerance, avg)
        for i, (r, t) in enumerate(self.CASES):
            one = recentred_window(r, t, 0.6, 0.15, 7.0)
            assert tuple(float(v) for v in one) == tuple(
                column.item(i) for column in lanes
            )

    def test_update_keeps_python_floats(self, target):
        target.update(observed_rate=10.0, tail_latency_s=0.6)
        target.update(observed_rate=None, tail_latency_s=None)
        for value in (target.min_rate, target.avg_rate, target.max_rate):
            assert type(value) is float
        assert (target.min_rate, target.max_rate) == (1e-9, math.inf)
        assert target.avg_rate == 10.0
