"""Unit tests for the microbenchmark and the power-profiling sweep."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.machine import Machine
from repro.platform.power import CoreActivity, PowerModel
from repro.platform.sensor import PowerSensor
from repro.platform.spec import odroid_xu3
from repro.workloads.microbench import (
    DEFAULT_DWELL_S,
    DEFAULT_UTILIZATIONS,
    PROFILE_TICK_S,
    MicrobenchWorkload,
    ProfilePoint,
    profile_power,
)


def _per_tick_profile(spec):
    """The sweep with the ground truth evaluated afresh on every tick:
    the oracle for the one-reading-per-point sweep."""
    model = PowerModel(spec)
    points = []
    for cluster in spec.clusters:
        for freq in cluster.frequencies_mhz:
            for cores_used in range(1, cluster.n_cores + 1):
                for util in DEFAULT_UTILIZATIONS:
                    machine = Machine(spec)
                    for other in spec.clusters:
                        machine.set_freq_mhz(other.name, other.min_freq_mhz)
                    machine.set_freq_mhz(cluster.name, freq)
                    activities = {
                        core: CoreActivity(utilization=util, activity_factor=1.0)
                        for core in cluster.core_ids[:cores_used]
                    }
                    sensor = PowerSensor()
                    elapsed = 0.0
                    while elapsed < DEFAULT_DWELL_S:
                        sensor.record(
                            PROFILE_TICK_S,
                            model.platform_power(machine, activities),
                        )
                        elapsed += PROFILE_TICK_S
                    points.append(
                        ProfilePoint(
                            cluster=cluster.name,
                            freq_mhz=freq,
                            cores_used=cores_used,
                            utilization=util,
                            watts=sensor.best_average_w(cluster.name),
                        )
                    )
    return points


class TestMicrobenchWorkload:
    def test_duty_cycle_consumption(self):
        bench = MicrobenchWorkload(n_threads=2, duty=0.5)
        result = bench.advance({0: 4.0, 1: 2.0})
        assert result.consumed[0] == pytest.approx(2.0)
        assert result.consumed[1] == pytest.approx(1.0)
        assert bench.work_done == pytest.approx(3.0)

    def test_never_done_and_no_heartbeats(self):
        bench = MicrobenchWorkload(n_threads=1)
        assert not bench.is_done()
        assert bench.total_heartbeats() == 0
        assert bench.advance({0: 1.0}).heartbeats == 0

    def test_always_wants_cpu(self):
        bench = MicrobenchWorkload(n_threads=2, duty=0.1)
        assert list(bench.runnable_threads()) == [0, 1]
        bench.advance({0: 1.0, 1: 1.0})
        assert list(bench.runnable_threads()) == [0, 1]

    def test_duty_bounds(self):
        with pytest.raises(ConfigurationError):
            MicrobenchWorkload(n_threads=1, duty=0.0)
        with pytest.raises(ConfigurationError):
            MicrobenchWorkload(n_threads=1, duty=1.5)

    def test_reset_clears_work(self):
        bench = MicrobenchWorkload(n_threads=1)
        bench.advance({0: 5.0})
        bench.reset()
        assert bench.work_done == 0.0


class TestProfilePower:
    def test_sweep_covers_full_grid(self, small_spec):
        points = profile_power(small_spec, utilizations=(0.5, 1.0), dwell_s=0.6)
        # 2 clusters × 3 freqs × 2 core counts × 2 utilizations.
        assert len(points) == 2 * 3 * 2 * 2

    def test_power_increases_with_load(self, small_spec):
        points = profile_power(small_spec, utilizations=(0.25, 1.0), dwell_s=0.6)
        by_key = {
            (p.cluster, p.freq_mhz, p.cores_used, p.utilization): p.watts
            for p in points
        }
        freq = small_spec.big.max_freq_mhz
        light = by_key[("big", freq, 1, 0.25)]
        heavy = by_key[("big", freq, 2, 1.0)]
        assert heavy > light

    def test_points_are_positive(self, small_spec):
        for point in profile_power(
            small_spec, utilizations=(1.0,), dwell_s=0.6
        ):
            assert point.watts > 0

    def test_one_reading_per_point_equals_per_tick_evaluation(self):
        # Exact equality: calibration fits on these floats.
        spec = odroid_xu3()
        assert profile_power(spec) == _per_tick_profile(spec)

    def test_invalid_parameters_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            profile_power(small_spec, dwell_s=0.0)
        with pytest.raises(ConfigurationError):
            profile_power(small_spec, utilizations=(0.0,), dwell_s=0.5)
