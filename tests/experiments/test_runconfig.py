"""RunConfig semantics."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, run


class TestRunConfig:
    def test_is_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.checkpoint = 1.0

    def test_with_replaces_without_mutating(self):
        base = RunConfig()
        fast = base.with_(telemetry=True, checkpoint=2.0)
        assert fast.telemetry is True
        assert fast.checkpoint == 2.0
        assert base.telemetry is None
        assert base.checkpoint is None

    def test_unknown_profile_rejected(self):
        # The engine has one execution path; the switch that chose
        # between several is gone, not silently ignored.
        with pytest.raises(TypeError):
            RunConfig(profile="vector")

    def test_nonpositive_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(checkpoint=0.0)

    def test_run_rejects_non_shape_input(self):
        with pytest.raises(ConfigurationError):
            run("hars-e", ["swaptions"])
