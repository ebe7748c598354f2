"""FaultConfig validation, enablement queries, and presets."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS, FaultConfig


class TestValidation:
    def test_default_config_is_disabled(self):
        cfg = FaultConfig()
        assert not cfg.enabled
        assert not cfg.sensor_enabled
        assert not cfg.heartbeat_enabled
        assert not cfg.actuation_enabled

    @pytest.mark.parametrize(
        "field",
        [
            "sensor_dropout_rate",
            "sensor_noise_rate",
            "sensor_stuck_rate",
            "thermal_ramp_rate",
            "heartbeat_stall_rate",
            "heartbeat_jitter_rate",
            "dvfs_failure_rate",
            "affinity_failure_rate",
            "app_crash_rate",
            "app_hang_rate",
            "app_runaway_rate",
            "controller_restart_rate",
        ],
    )
    @pytest.mark.parametrize("bad", [-0.1, -1e-9, 1.5])
    def test_rates_must_be_probabilities(self, field, bad):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: bad})

    def test_noise_std_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(sensor_noise_std=-0.01)

    def test_thermal_ramp_heat_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(thermal_ramp_heat_w=-0.5)

    @pytest.mark.parametrize(
        "field",
        [
            "sensor_stuck_samples",
            "thermal_ramp_samples",
            "heartbeat_stall_ticks",
            "heartbeat_jitter_ticks",
        ],
    )
    def test_episode_lengths_must_be_at_least_one(self, field):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: 0})


class TestEnablement:
    def test_any_rate_enables(self):
        assert FaultConfig(sensor_dropout_rate=0.1).enabled
        assert FaultConfig(dvfs_failure_rate=0.1).enabled

    def test_channel_queries_are_independent(self):
        cfg = FaultConfig(heartbeat_jitter_rate=0.5)
        assert cfg.heartbeat_enabled
        assert not cfg.sensor_enabled
        assert not cfg.actuation_enabled

    def test_thermal_ramp_is_a_sensor_channel(self):
        cfg = FaultConfig(thermal_ramp_rate=0.1)
        assert cfg.sensor_enabled
        assert cfg.enabled
        assert not cfg.heartbeat_enabled


class TestPresets:
    def test_disabled_preset(self):
        assert not FaultConfig.disabled().enabled

    def test_defaults_enable_every_channel(self):
        assert FaultConfig.defaults().seed == 0
        cfg = dataclasses.replace(FaultConfig.defaults(), seed=7)
        assert cfg.seed == 7
        assert cfg.sensor_enabled
        assert cfg.heartbeat_enabled
        assert cfg.actuation_enabled

    def test_scaled_by_zero_disables(self):
        assert not FaultConfig.defaults().scaled(0.0).enabled

    def test_scaled_multiplies_rates_and_caps_at_one(self):
        cfg = FaultConfig.defaults().scaled(100.0)
        assert cfg.dvfs_failure_rate == 1.0
        assert cfg.sensor_dropout_rate == 1.0
        # Shapes are preserved, only rates scale.
        assert cfg.sensor_stuck_samples == FaultConfig.defaults().sensor_stuck_samples

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ConfigurationError):
            FaultConfig.defaults().scaled(-1.0)

    def test_fault_kinds_cover_all_channels(self):
        assert set(FAULT_KINDS) == {
            "sensor-dropout",
            "sensor-noise",
            "sensor-stuck",
            "heartbeat-stall",
            "heartbeat-jitter",
            "dvfs",
            "affinity",
            "thermal-ramp",
        }
