"""FaultInjector behaviour: determinism, per-channel faults, bus events."""

import dataclasses

import pytest

from repro.faults import FaultConfig, FaultInjector
from repro.kernel.bus import EventBus, FaultInjected, FaultRecovered

WATTS = {"big": 3.0, "little": 1.0, "board": 0.5, "total": 4.5}


def make(config):
    bus = EventBus()
    injected, recovered = [], []
    bus.subscribe(FaultInjected, injected.append)
    bus.subscribe(FaultRecovered, recovered.append)
    return FaultInjector(config, bus), injected, recovered


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        cfg = dataclasses.replace(FaultConfig.defaults(), seed=42)
        a, _, _ = make(cfg)
        b, _, _ = make(cfg)
        series_a = [a.filter_power(i * 0.26, WATTS) for i in range(200)]
        series_b = [b.filter_power(i * 0.26, WATTS) for i in range(200)]
        assert series_a == series_b
        assert a.injected == b.injected

    def test_different_seed_different_schedule(self):
        a, _, _ = make(dataclasses.replace(FaultConfig.defaults(), seed=1))
        b, _, _ = make(dataclasses.replace(FaultConfig.defaults(), seed=2))
        series_a = [a.filter_power(i * 0.26, WATTS) for i in range(200)]
        series_b = [b.filter_power(i * 0.26, WATTS) for i in range(200)]
        assert series_a != series_b


class TestSensorFaults:
    def test_dropout_returns_none_then_recovers(self):
        inj, injected, recovered = make(
            FaultConfig(sensor_dropout_rate=1.0, seed=0)
        )
        assert inj.filter_power(0.26, WATTS) is None
        assert injected[-1].kind == "sensor-dropout"
        # Rate 1 keeps dropping; a fresh injector with rate 0 after one
        # drop exercises the recovery edge instead:
        inj2, _, recovered2 = make(FaultConfig(sensor_dropout_rate=1.0, seed=0))
        assert inj2.filter_power(0.26, WATTS) is None
        inj2.config = FaultConfig(seed=0)  # faults stop
        assert inj2.filter_power(0.52, WATTS) == WATTS
        assert recovered2[-1].kind == "sensor-dropout"
        assert inj2.total_recovered == 1

    def test_stuck_freezes_reading_for_episode(self):
        inj, injected, recovered = make(
            FaultConfig(sensor_stuck_rate=1.0, sensor_stuck_samples=3, seed=0)
        )
        first = inj.filter_power(0.26, WATTS)
        assert first == WATTS
        assert injected[-1].kind == "sensor-stuck"
        hotter = {k: v * 2 for k, v in WATTS.items()}
        # Next two samples stay frozen at the episode-start reading.
        assert inj.filter_power(0.52, hotter) == WATTS
        assert inj.filter_power(0.79, hotter) == WATTS
        assert recovered[-1].kind == "sensor-stuck"
        assert inj.injected["sensor-stuck"] == 1
        assert inj.recovered["sensor-stuck"] == 1

    def test_noise_scales_all_channels_equally(self):
        inj, injected, _ = make(
            FaultConfig(sensor_noise_rate=1.0, sensor_noise_std=0.5, seed=3)
        )
        noisy = inj.filter_power(0.26, WATTS)
        assert injected[-1].kind == "sensor-noise"
        factors = {ch: noisy[ch] / WATTS[ch] for ch in WATTS}
        assert len(set(round(f, 12) for f in factors.values())) == 1
        assert all(f >= 0 for f in factors.values())

    def test_clean_sample_passes_through_unchanged(self):
        inj, injected, recovered = make(FaultConfig.defaults().scaled(0.0))
        # A disabled config never rolls: identical object semantics.
        assert inj.filter_power(0.26, WATTS) == WATTS
        assert not injected and not recovered


class TestThermalRamp:
    def _ramp_config(self, samples=5, heat=2.0):
        return FaultConfig(
            thermal_ramp_rate=1.0,
            thermal_ramp_samples=samples,
            thermal_ramp_heat_w=heat,
            seed=0,
        )

    def test_triangular_excursion_on_board_and_total(self):
        inj, injected, recovered = make(self._ramp_config())
        extras = []
        for i in range(5):
            observed = inj.filter_power(0.26 * (i + 1), WATTS)
            extras.append(observed["total"] - WATTS["total"])
            # The cluster rails never heat: the excursion is ambient.
            assert observed["big"] == WATTS["big"]
            assert observed["little"] == WATTS["little"]
            assert observed["board"] - WATTS["board"] == pytest.approx(
                extras[-1]
            )
        # Ramp up to the peak at the middle, back down to zero.
        assert extras == pytest.approx([0.0, 1.0, 2.0, 1.0, 0.0])
        assert injected[0].kind == "thermal-ramp"
        assert recovered[-1].kind == "thermal-ramp"

    def test_single_sample_episode_is_the_peak(self):
        inj, _, _ = make(self._ramp_config(samples=1))
        observed = inj.filter_power(0.26, WATTS)
        assert observed["total"] == pytest.approx(WATTS["total"] + 2.0)
        assert inj.recovered.get("thermal-ramp") == 1

    def test_additivity_of_rails_is_preserved(self):
        inj, _, _ = make(self._ramp_config())
        for i in range(5):
            observed = inj.filter_power(0.26 * (i + 1), WATTS)
            assert observed["total"] == pytest.approx(
                observed["big"] + observed["little"] + observed["board"]
            )

    def test_episodes_are_deterministic_per_seed(self):
        cfg = FaultConfig(thermal_ramp_rate=0.3, seed=9)
        a, _, _ = make(cfg)
        b, _, _ = make(cfg)
        series_a = [a.filter_power(i * 0.26, WATTS) for i in range(300)]
        series_b = [b.filter_power(i * 0.26, WATTS) for i in range(300)]
        assert series_a == series_b
        assert a.injected.get("thermal-ramp", 0) > 0

    def test_separate_rng_stream_preserves_sample_faults(self):
        # Enabling the ramp must not shift the dropout/stuck/noise
        # schedule of an established seed: compare which samples drop.
        base, _, _ = make(FaultConfig(sensor_dropout_rate=0.2, seed=7))
        ramped, _, _ = make(
            FaultConfig(
                sensor_dropout_rate=0.2, thermal_ramp_rate=0.3, seed=7
            )
        )
        drops_base = [
            base.filter_power(i * 0.26, WATTS) is None for i in range(300)
        ]
        drops_ramped = [
            ramped.filter_power(i * 0.26, WATTS) is None for i in range(300)
        ]
        assert drops_base == drops_ramped

    def test_ramp_rides_on_top_of_noise(self):
        # The excursion applies after the sample-fault chain, so a noisy
        # reading still carries the extra watts on the heated rails.
        inj, _, _ = make(
            FaultConfig(
                sensor_noise_rate=1.0,
                sensor_noise_std=0.2,
                thermal_ramp_rate=1.0,
                thermal_ramp_samples=3,
                thermal_ramp_heat_w=2.0,
                seed=3,
            )
        )
        inj.filter_power(0.26, WATTS)            # edge: +0 W
        observed = inj.filter_power(0.52, WATTS)  # middle: +2 W peak
        # Noise scales all rails by one factor; the ramp then adds the
        # same excursion to board and total only.
        factor = observed["big"] / WATTS["big"]
        assert observed["board"] == pytest.approx(
            WATTS["board"] * factor + 2.0
        )
        assert observed["total"] == pytest.approx(
            WATTS["total"] * factor + 2.0
        )


class TestHeartbeatFaults:
    def test_stall_and_jitter_delays(self):
        inj, _, _ = make(FaultConfig(heartbeat_stall_rate=1.0, seed=0))
        kind, delay = inj.heartbeat_fault("app", 1.0)
        assert kind == "heartbeat-stall"
        assert delay == FaultConfig().heartbeat_stall_ticks

        inj, _, _ = make(
            FaultConfig(heartbeat_jitter_rate=1.0, heartbeat_jitter_ticks=4, seed=0)
        )
        kind, delay = inj.heartbeat_fault("app", 1.0)
        assert kind == "heartbeat-jitter"
        assert 1 <= delay <= 4

    def test_no_fault_returns_none(self):
        inj, _, _ = make(FaultConfig(sensor_dropout_rate=0.5, seed=0))
        assert inj.heartbeat_fault("app", 1.0) is None


class TestActuationFaults:
    def test_write_rolls_respect_rates(self):
        inj, _, _ = make(FaultConfig(dvfs_failure_rate=1.0, seed=0))
        assert inj.actuation_enabled("dvfs")
        assert not inj.actuation_enabled("affinity")
        assert not inj.dvfs_write_ok("big", 1800)
        assert inj.affinity_write_ok("app")  # rate 0 never fails

    def test_counters_and_summary(self):
        inj, _, _ = make(FaultConfig.defaults())
        inj.note_injected("dvfs", "big", 1.0)
        inj.note_injected("dvfs", "big", 2.0)
        inj.note_recovered("dvfs", "big", 3.0)
        assert inj.total_injected == 2
        assert inj.total_recovered == 1
        assert inj.summary() == {"dvfs": (2, 1)}
