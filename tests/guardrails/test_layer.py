"""GuardrailLayer end to end: capped runs, identity, checkpointing."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape, run
from repro.guardrails import GuardrailConfig, GuardrailLayer
from repro.guardrails.config import FILTER_MARGIN
from repro.sim.engine import Simulation

SHAPE = RunShape(benchmark="swaptions", n_units=300, seed=0)


def _snapshot(outcome):
    """Everything a run decides: metrics plus the full trace."""
    return (
        dataclasses.asdict(outcome.metrics),
        tuple(
            (name, outcome.trace.points(name))
            for name in sorted(outcome.trace.app_names)
        ),
    )


@pytest.fixture(scope="module")
def base_outcome():
    return run("hars-e", SHAPE)


@pytest.fixture(scope="module")
def capped_outcome(base_outcome):
    cap = 0.8 * base_outcome.metrics.avg_power_w
    return run(
        "hars-e", SHAPE, RunConfig(guardrails=GuardrailConfig(power_cap_w=cap))
    ), cap


class TestBudgetCap:
    def test_capped_run_attaches_the_layer(self, capped_outcome):
        outcome, _ = capped_outcome
        assert outcome.guardrails is not None
        assert outcome.guardrails.enforcer is not None

    def test_average_power_respects_the_cap(self, base_outcome, capped_outcome):
        outcome, cap = capped_outcome
        assert outcome.metrics.avg_power_w < base_outcome.metrics.avg_power_w
        assert outcome.metrics.avg_power_w <= cap

    def test_violations_end_within_one_adaptation_period(self, capped_outcome):
        outcome, _ = capped_outcome
        app = outcome.metrics.apps[0]
        period_s = SHAPE.adapt_every / app.target_avg
        enforcer = outcome.guardrails.enforcer
        # The acceptance bound: a sensor excursion over the cap is
        # throttled away within one adaptation period.
        assert enforcer.max_violation_streak_s <= period_s

    def test_trips_are_counted_and_announced(self, capped_outcome):
        outcome, _ = capped_outcome
        stats = outcome.guardrails.guardrail_stats()
        assert stats["budget_trips"] == outcome.guardrails.enforcer.trips
        assert stats["emergency_throttles"] >= stats["budget_trips"]

    def test_forced_cycles_shrink_the_allocation(self, capped_outcome):
        outcome, _ = capped_outcome
        # An in-window rate must not mask a violated budget: the guard
        # forces planning cycles, and the vetoed search shrinks the
        # allocation (frequency pinning alone cannot clear the cap).
        assert outcome.guardrails.forced_cycles > 0

    def test_filtered_counter_reaches_telemetry(self):
        outcome = run(
            "hars-e",
            SHAPE,
            RunConfig(
                telemetry=True,
                guardrails=GuardrailConfig(power_cap_w=2.0),
            ),
        )
        snapshot = outcome.telemetry.registry.snapshot()
        names = {entry["name"] for entry in snapshot["instruments"]}
        assert "guardrail_stats" in names
        assert "guardrail_trips_total" in names


class TestIdentity:
    def test_empty_config_is_bit_identical(self, base_outcome):
        empty = run("hars-e", SHAPE, RunConfig(guardrails=GuardrailConfig()))
        explicit_none = run("hars-e", SHAPE, RunConfig(guardrails=None))
        assert empty.guardrails is None
        assert _snapshot(empty) == _snapshot(base_outcome)
        assert _snapshot(explicit_none) == _snapshot(base_outcome)

    def test_layer_rejects_a_disabled_config(self):
        with pytest.raises(ConfigurationError):
            GuardrailLayer(GuardrailConfig())


class TestCheckpoint:
    def _layer(self):
        return GuardrailLayer(
            GuardrailConfig(
                power_cap_w=2.0,
                damper_window=4,
                watchdog_window=4,
            )
        )

    def test_round_trip_restores_every_component(self, xu3):
        layer = self._layer()
        layer.enforcer.board_power_w = 0.25
        layer.enforcer.set_live(["swaptions"], 0.0)
        layer.enforcer.observe(0.1, 3.0, 0.1)
        layer.emergency_throttles = 7
        body = layer.checkpoint(now_s=0.1)
        assert body["controller"] == "guardrails"

        sim = Simulation(xu3, tick_s=0.01)
        clone = self._layer()
        clone.enforcer.board_power_w = 0.25
        clone.restore_checkpoint(sim, body)
        assert clone.emergency_throttles == 7
        assert clone.enforcer.trips == 1
        assert clone.enforcer.throttling
        assert clone.enforcer.margin == layer.enforcer.margin

    def test_simulate_restart_without_store_is_cold(self, xu3):
        sim = Simulation(xu3, tick_s=0.01)
        layer = self._layer()
        layer.enforcer.board_power_w = 0.25
        layer.enforcer.set_live(["a"], 0.0)
        layer.enforcer.observe(0.1, 3.0, 0.1)
        restored = []
        from repro.kernel.bus import ControllerRestored

        sim.bus.subscribe(ControllerRestored, restored.append)
        layer._sim = sim
        layer.simulate_restart(sim)
        assert len(restored) == 1
        assert not restored[0].warm
        # Volatile state reset; monotonic counters survive.
        assert not layer.enforcer.throttling
        assert layer.enforcer.margin == FILTER_MARGIN
        assert layer.enforcer.trips == 1
