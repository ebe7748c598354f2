"""Arrival-trace generator tests: determinism, ordering, shapes."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import PER_NODE_RPS, TRACES, FleetConfig
from repro.fleet.trace import _DIURNAL_PERIOD_S, HEAVY_FRACTION, make_trace


def _config(**overrides):
    base = dict(nodes=4, requests=500)
    base.update(overrides)
    return FleetConfig(**base)


class TestMakeTrace:
    def test_deterministic_in_config(self):
        assert make_trace(_config()) == make_trace(_config())

    def test_seed_changes_trace(self):
        assert make_trace(_config(seed=0)) != make_trace(_config(seed=1))

    @pytest.mark.parametrize("shape", TRACES)
    def test_all_shapes_generate(self, shape):
        trace = make_trace(_config(trace=shape))
        assert len(trace) == 500
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(r.arrival_s > 0 for r in trace)

    def test_indices_follow_arrival_order(self):
        trace = make_trace(_config())
        assert [r.index for r in trace] == list(range(len(trace)))

    def test_deadline_is_arrival_plus_budget(self):
        config = _config(deadline_s=0.25)
        for request in make_trace(config):
            assert request.deadline_s == pytest.approx(
                request.arrival_s + 0.25
            )
            assert request.budget_s == pytest.approx(0.25)

    def test_bimodal_sizes(self):
        config = _config(requests=2000)
        trace = make_trace(config)
        heavy = [r for r in trace if r.heavy]
        light = [r for r in trace if not r.heavy]
        assert heavy and light
        # The two modes are separated by the heavy scale.
        assert min(r.service_units for r in heavy) > max(
            r.service_units for r in light
        )
        assert len(heavy) / len(trace) == pytest.approx(HEAVY_FRACTION, abs=0.05)

    def test_mean_rate_tracks_configured_rate(self):
        config = _config(requests=5000)
        trace = make_trace(config)
        mean_rate = len(trace) / trace[-1].arrival_s
        assert mean_rate == pytest.approx(config.arrival_rps, rel=0.1)

    def test_burst_trace_is_bursty(self):
        """Inter-arrival variance far above the stationary trace's."""
        poisson = make_trace(_config(requests=3000))
        burst = make_trace(_config(requests=3000, trace="burst"))

        def cv2(trace):
            gaps = [
                b.arrival_s - a.arrival_s
                for a, b in zip(trace, trace[1:])
            ]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert cv2(burst) > cv2(poisson) * 1.5

    def test_unknown_shape_rejected(self):
        config = dataclasses.replace(_config(), trace="poisson")
        object.__setattr__(config, "trace", "square-wave")
        with pytest.raises(ConfigurationError):
            make_trace(config)


class TestDiurnalTrace:
    """The sinusoidal day/night trace ``hars-repro fleet --trace`` offers."""

    def _trace(self, seed=0):
        # About five periods of the sinusoid at the default rate.
        return make_trace(_config(trace="diurnal", requests=3000, seed=seed))

    def test_deterministic_per_seed(self):
        assert self._trace(seed=3) == self._trace(seed=3)
        assert self._trace(seed=3) != self._trace(seed=4)

    def test_arrivals_never_decrease(self):
        arrivals = [r.arrival_s for r in self._trace()]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_high_half_periods_hold_more_arrivals(self):
        """The rate is ``base × (1 + depth × sin)``: the first half of
        each period runs above the base rate, the second half below."""
        trace = self._trace()
        assert trace[-1].arrival_s > 4 * _DIURNAL_PERIOD_S
        high = low = 0
        for request in trace:
            phase = math.fmod(request.arrival_s, _DIURNAL_PERIOD_S)
            if phase < _DIURNAL_PERIOD_S / 2:
                high += 1
            else:
                low += 1
        assert high > 2 * low


class TestFleetConfig:
    def test_arrival_rps(self):
        assert _config(nodes=4).arrival_rps == 4 * PER_NODE_RPS
        assert FleetConfig().per_node_rps == PER_NODE_RPS

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", 0),
            ("tick_s", 0.0),
            ("requests", 0),
            ("deadline_s", 0.0),
            ("lane_threads", 0),
            ("percentile", 0.0),
            ("slack", 1.0),
            ("trace", "nope"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            _config(**{field: value})
