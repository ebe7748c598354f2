"""GuardrailConfig validation and the everything-off default."""

import pytest

from repro.errors import ConfigurationError
from repro.guardrails import GuardrailConfig
from repro.guardrails.config import DAMPER_FLIPS


class TestDefaultsOff:
    def test_default_config_is_fully_disabled(self):
        cfg = GuardrailConfig()
        assert not cfg.enabled
        assert not cfg.budget_enabled
        assert not cfg.damper_enabled
        assert not cfg.watchdog_enabled

    def test_run_cap_enables_budget(self):
        cfg = GuardrailConfig(power_cap_w=3.0)
        assert cfg.budget_enabled
        assert cfg.enabled

    def test_app_caps_enable_budget(self):
        cfg = GuardrailConfig(app_power_caps=(("swaptions-0", 1.5),))
        assert cfg.budget_enabled
        assert cfg.explicit_caps() == {"swaptions-0": 1.5}

    def test_damper_window_enables_damper(self):
        assert GuardrailConfig(damper_window=6).damper_enabled

    def test_watchdog_window_enables_watchdog(self):
        assert GuardrailConfig(watchdog_window=8).watchdog_enabled

    def test_with_keeps_frozen_original(self):
        base = GuardrailConfig()
        capped = base.with_(power_cap_w=2.5)
        assert not base.enabled
        assert capped.power_cap_w == 2.5


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power_cap_w": 0.0},
            {"power_cap_w": -1.0},
            {"app_power_caps": (("a", 0.0),)},
            {"app_power_caps": (("a", 1.0), ("a", 2.0))},
            {"app_power_caps": (("a",),)},
            {"app_power_caps": (("a", -1.0),)},
            {"app_power_caps": (("a", 1.0, 2.0),)},
            {"power_cap_w": 2.0, "app_power_caps": (("a", 1.0), ("b", 0.0))},
            # a valid cap or damper does not excuse another bad section
            {"power_cap_w": 2.0, "damper_window": 2},
            {"power_cap_w": 2.0, "watchdog_window": 1},
            {"damper_window": 4, "watchdog_window": 1},
            {"damper_window": 4, "damper_hold_periods": -1},
            {"damper_window": 5, "damper_states": 5},
            {"damper_window": -1},
            {"damper_window": 2},
            # a full window must hold more than DAMPER_FLIPS flips' plans
            {"damper_window": 1},
            {"damper_window": DAMPER_FLIPS},
            {"damper_window": 4, "damper_hold_periods": 0},
            {"damper_window": 4, "damper_states": 1},
            {"damper_window": 4, "damper_states": 4},
            {"watchdog_window": -1},
            {"watchdog_window": 1},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            GuardrailConfig(**kwargs)

    def test_thermal_requires_a_budget(self):
        with pytest.raises(ConfigurationError):
            GuardrailConfig(thermal_enabled=True)

    def test_valid_thermal_config_accepted(self):
        cfg = GuardrailConfig(power_cap_w=2.0, thermal_enabled=True)
        assert cfg.enabled
