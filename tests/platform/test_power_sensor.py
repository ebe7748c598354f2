"""Unit tests for the ground-truth power model and the power sensor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platform.cluster import BIG, LITTLE
from repro.platform.machine import Machine
from repro.platform.power import (
    IDLE,
    CoreActivity,
    PowerModel,
    cluster_power_sum,
    effective_activity_rows,
)
from repro.platform.sensor import DEFAULT_SAMPLE_PERIOD_S, PowerSensor


@pytest.fixture
def machine(xu3):
    return Machine(xu3)


@pytest.fixture
def model(xu3):
    return PowerModel(xu3)


def _full_load(core_ids, activity=1.0):
    return {c: CoreActivity(utilization=1.0, activity_factor=activity) for c in core_ids}


class TestPowerModel:
    def test_idle_platform_draws_little_power(self, model, machine):
        watts = model.platform_power(machine, {})
        assert 0 < watts["total"] < 2.5
        assert watts["total"] == pytest.approx(
            watts[BIG] + watts[LITTLE] + watts["board"]
        )

    def test_big_cluster_dominates_at_full_load(self, model, machine):
        watts = model.platform_power(machine, _full_load(range(8)))
        assert watts[BIG] > 4 * watts[LITTLE]

    def test_big_cluster_full_load_near_5_5w(self, model, machine):
        # Calibration anchor from the XU3's measured envelope.
        watts = model.platform_power(machine, _full_load((4, 5, 6, 7)))
        assert 4.5 < watts[BIG] < 7.0

    def test_little_cluster_full_load_under_1_2w(self, model, machine):
        watts = model.platform_power(machine, _full_load((0, 1, 2, 3)))
        assert 0.4 < watts[LITTLE] < 1.2

    def test_power_monotonic_in_utilization(self, model, machine):
        powers = []
        for util in (0.25, 0.5, 0.75, 1.0):
            acts = {4: CoreActivity(utilization=util)}
            powers.append(model.platform_power(machine, acts)[BIG])
        assert powers == sorted(powers)
        assert powers[0] < powers[-1]

    def test_power_monotonic_in_frequency(self, model, machine):
        powers = []
        for freq in machine.spec.big.frequencies_mhz:
            machine.set_freq_mhz(BIG, freq)
            powers.append(
                model.platform_power(machine, _full_load((4, 5, 6, 7)))[BIG]
            )
        assert powers == sorted(powers)

    def test_activity_factor_scales_dynamic_power(self, model, machine):
        busy = model.platform_power(machine, _full_load((4,), activity=1.0))
        calm = model.platform_power(machine, _full_load((4,), activity=0.5))
        assert calm[BIG] < busy[BIG]

    def test_power_sum_same_for_floats_and_columns(self):
        effective = np.array([[0.1, 0.5, 1.0, 0.03], [0.7, 0.7, 0.2, 0.9]])
        dyn = np.array([1.3, 0.4])
        leak = np.array([0.02, 0.05])
        rows = cluster_power_sum(0.1, dyn, leak, list(effective.T))
        assert rows.tolist() == [
            cluster_power_sum(0.1, d, k, e)
            for d, k, e in zip(dyn.tolist(), leak.tolist(), effective.tolist())
        ]

    def test_scalar_clamp_equals_the_engine_clamp(self, model, machine):
        """``platform_power_arrays``' inline clamp and the engine's
        ``effective_activity_rows`` give the same watts, row by row."""
        dt = 0.02
        spec = machine.spec
        idle = np.array(
            [spec.cluster_of(c).core_type.idle_activity for c in range(8)]
        )
        cases = [
            ([0.0] * 8, [0.0] * 8),  # no busy time
            ([0.03] * 8, [0.015] * 8),  # busy time above dt
            ([0.01] * 8, [0.02] * 8),  # activity above 1
            ([1e-6] * 8, [1e-7] * 8),  # below the idle activity
            (
                [0.0, 0.02, 0.025, 1e-6, 0.004, 0.011, 0.02, 0.0],
                [0.0, 0.01, 0.05, 1e-9, 0.004, 0.0033, 0.019, 0.0],
            ),
        ]
        busy = np.array([case[0] for case in cases])
        busy_activity = np.array([case[1] for case in cases])
        effective = effective_activity_rows(busy, busy_activity, dt, idle)
        assert effective[0].tolist() == idle.tolist()
        assert effective[1].tolist() == [0.5] * 8
        assert effective[2].tolist() == [0.5] * 8
        assert effective[3].tolist() == idle.tolist()
        for freq_big in (spec.big.min_freq_mhz, spec.big.max_freq_mhz):
            machine.set_freq_mhz(BIG, freq_big)
            for row, (core_busy, core_ba) in enumerate(cases):
                watts = model.platform_power_arrays(
                    machine, core_busy, core_ba, dt
                )
                for cluster in spec.clusters:
                    dyn, leak = model._coefficients(
                        cluster, machine.freq_mhz(cluster.name)
                    )
                    assert watts[cluster.name] == cluster_power_sum(
                        cluster.uncore_power_w,
                        dyn,
                        leak,
                        [effective.item(row, c) for c in cluster.core_ids],
                    )

    def test_idle_constant(self):
        assert IDLE.utilization == 0.0

    def test_invalid_activity_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreActivity(utilization=1.5)
        with pytest.raises(ConfigurationError):
            CoreActivity(utilization=0.5, activity_factor=0.0)


class TestPowerSensor:
    def _watts(self, total=2.0):
        return {BIG: total - 0.7, LITTLE: 0.45, "board": 0.25, "total": total}

    def test_energy_integration(self):
        sensor = PowerSensor()
        for _ in range(100):
            sensor.record(0.01, self._watts(3.0))
        assert sensor.elapsed_s == pytest.approx(1.0)
        assert sensor.energy_j() == pytest.approx(3.0)
        assert sensor.average_power_w() == pytest.approx(3.0)

    def test_sample_period_matches_paper(self):
        assert DEFAULT_SAMPLE_PERIOD_S == pytest.approx(0.263808)

    def test_samples_captured_at_period(self):
        sensor = PowerSensor(sample_period_s=0.1)
        for _ in range(100):
            sensor.record(0.01, self._watts())
        assert len(sensor.samples) == 10
        assert sensor.samples[0].time_s == pytest.approx(0.1)

    def test_sampled_average_matches_constant_power(self):
        sensor = PowerSensor(sample_period_s=0.05)
        for _ in range(50):
            sensor.record(0.01, self._watts(2.5))
        assert sensor.sampled_average_w() == pytest.approx(2.5)

    def test_average_before_any_record_raises(self):
        with pytest.raises(ConfigurationError):
            PowerSensor().average_power_w()

    def test_missing_channel_rejected(self):
        sensor = PowerSensor()
        with pytest.raises(ConfigurationError):
            sensor.record(0.01, {"total": 1.0})

    def test_unknown_channel_query_rejected(self):
        sensor = PowerSensor()
        sensor.record(0.01, self._watts())
        with pytest.raises(ConfigurationError):
            sensor.energy_j("gpu")

    def test_reset_clears_state(self):
        sensor = PowerSensor()
        sensor.record(0.5, self._watts())
        sensor.reset()
        assert sensor.elapsed_s == 0.0
        assert not sensor.samples
        assert sensor.energy_j() == 0.0

    def test_per_channel_energy(self):
        sensor = PowerSensor()
        sensor.record(2.0, self._watts(2.0))
        assert sensor.energy_j(BIG) == pytest.approx(2.6)
        assert sensor.energy_j(LITTLE) == pytest.approx(0.9)

    def test_no_sample_drift_at_paper_tick_period_ratio(self):
        # Regression: accumulating the next-sample time as a running
        # float sum drifts against the summed 10 ms ticks and eventually
        # skips or double-fires a boundary.  Over 100 000 ticks (1000 s)
        # at the paper's 263.808 ms period the count must be exact.
        sensor = PowerSensor()  # DEFAULT_SAMPLE_PERIOD_S = 0.263808
        for _ in range(100_000):
            sensor.record(0.01, self._watts())
        expected = int(1000.0 / DEFAULT_SAMPLE_PERIOD_S)  # 3790
        assert len(sensor.samples) == expected
        # Every sample sits at an exact multiple of the period.
        for i, sample in enumerate(sensor.samples):
            assert sample.time_s == pytest.approx(
                (i + 1) * DEFAULT_SAMPLE_PERIOD_S, abs=1e-9
            )

    def test_reset_mid_period_restarts_sampling_cleanly(self):
        sensor = PowerSensor(sample_period_s=0.1)
        # Stop 30 ms into the second period...
        for _ in range(13):
            sensor.record(0.01, self._watts())
        assert len(sensor.samples) == 1
        sensor.reset()
        # ...and the first post-reset sample lands one full period after
        # the reset, not 70 ms after it.
        for _ in range(9):
            sensor.record(0.01, self._watts())
        assert len(sensor.samples) == 0
        sensor.record(0.01, self._watts())
        assert len(sensor.samples) == 1
        assert sensor.samples[0].time_s == pytest.approx(0.1)

    def test_fault_hook_drops_and_counts_samples(self):
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: None
        for _ in range(50):
            sensor.record(0.01, self._watts(3.0))
        assert not sensor.samples
        assert sensor.dropped_samples == 5
        # Ground truth is untouched by the observation fault.
        assert sensor.energy_j() == pytest.approx(1.5)

    def test_fault_hook_survives_reset(self):
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: None
        sensor.record(0.1, self._watts())
        sensor.reset()
        assert sensor.dropped_samples == 0
        sensor.record(0.1, self._watts())
        assert sensor.dropped_samples == 1

    def test_fault_hook_can_corrupt_readings(self):
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: {ch: v * 2 for ch, v in w.items()}
        for _ in range(10):
            sensor.record(0.01, self._watts(2.0))
        assert sensor.sampled_average_w() == pytest.approx(4.0)
        assert sensor.average_power_w() == pytest.approx(2.0)

    def test_negative_readings_are_clamped_and_counted(self):
        # INA231 registers are unsigned: an injected negative reading
        # (noise can overshoot) reaches readers clamped at zero.
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: {ch: v - 1.0 for ch, v in w.items()}
        for _ in range(10):
            sensor.record(0.01, self._watts(2.0))
        assert sensor.clamped_samples == 1
        sample = sensor.samples[0].watts
        assert all(value >= 0 for value in sample.values())
        assert sample["board"] == 0.0          # 0.25 − 1.0 clamped
        assert sample["total"] == pytest.approx(1.0)  # untouched rail

    def test_clamp_counts_once_per_sample(self):
        # Two negative channels in one reading are one clamped sample.
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: {ch: -v for ch, v in w.items()}
        for _ in range(30):
            sensor.record(0.01, self._watts(2.0))
        assert sensor.clamped_samples == 3
        assert all(
            value == 0.0
            for sample in sensor.samples
            for value in sample.watts.values()
        )

    def test_clean_samples_never_count_as_clamped(self):
        sensor = PowerSensor(sample_period_s=0.1)
        for _ in range(30):
            sensor.record(0.01, self._watts(2.0))
        assert sensor.clamped_samples == 0

    def test_reset_clears_clamped_counter(self):
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: {ch: -1.0 for ch in w}
        sensor.record(0.1, self._watts())
        assert sensor.clamped_samples == 1
        sensor.reset()
        assert sensor.clamped_samples == 0

    def test_best_average_prefers_samples(self):
        sensor = PowerSensor(sample_period_s=0.1)
        for _ in range(20):
            sensor.record(0.01, self._watts(2.0))
        assert sensor.best_average_w() == sensor.sampled_average_w()

    def test_best_average_degrades_to_integrated_on_total_dropout(self):
        sensor = PowerSensor(sample_period_s=0.1)
        sensor.fault_hook = lambda t, w: None
        for _ in range(20):
            sensor.record(0.01, self._watts(2.0))
        with pytest.raises(ConfigurationError):
            sensor.sampled_average_w()
        assert sensor.best_average_w() == pytest.approx(2.0)
