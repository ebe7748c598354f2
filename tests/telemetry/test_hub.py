"""Hub wiring: bus events, MAPE recorders, and finalize harvesting."""

import pytest

from repro.core.manager import DEFAULT_STATE_EVAL_COST_S
from repro.experiments.runner import RunConfig, RunShape, run
from repro.faults import FaultConfig
from repro.telemetry import TelemetryConfig, flatten_snapshot


@pytest.fixture(scope="module")
def instrumented(xu3):
    """One instrumented HARS-E run, shared by the wiring assertions."""
    shape = RunShape("swaptions", n_units=60)
    return run(
        "hars-e", shape, RunConfig(spec=xu3, telemetry=True)
    )


@pytest.fixture(scope="module")
def flat(instrumented):
    return flatten_snapshot(instrumented.telemetry.registry.snapshot())


class TestBusWiring:
    def test_heartbeats_match_the_app_log(self, instrumented, flat):
        assert flat[("heartbeats_total", (("app", "swaptions"),))] == 60

    def test_finished_app_counted(self, flat):
        assert flat[("apps_finished_total", (("app", "swaptions"),))] == 1

    def test_states_applied_positive(self, flat):
        assert flat[("states_applied_total", (("app", "swaptions"),))] > 0

    def test_run_info_labels(self, flat):
        assert (
            flat[
                (
                    "run_info",
                    (("version", "hars-e"),),
                )
            ]
            == 1.0
        )


class TestMapeWiring:
    def test_phase_counts_are_consistent(self, flat):
        phases = {
            labels: value
            for (name, labels), value in flat.items()
            if name == "mape_phase_total"
        }
        by_phase = {}
        for labels, value in phases.items():
            by_phase[dict(labels)["phase"]] = value
        # Monitors happen per heartbeat; in-window cycles stop after
        # Analyze; Execute only runs when the plan applies a new state.
        assert (
            by_phase["monitor"]
            >= by_phase["analyze"]
            >= by_phase["plan"]
            >= by_phase["execute"]
            >= 1
        )

    def test_search_counters_collected(self, instrumented, flat):
        explored = sum(
            value
            for (name, _), value in flat.items()
            if name == "search_states_explored_total"
        )
        pruned = sum(
            value
            for (name, _), value in flat.items()
            if name == "search_pruned_total"
        )
        assert explored > 0
        # HARS-E sweeps a ±box with a Manhattan-distance cut; some box
        # corners must have been pruned over a whole run.
        assert pruned > 0

    def test_plan_timer_carries_modelled_cost(self, flat):
        plan_s = sum(
            value
            for (name, labels), value in flat.items()
            if name == "mape_plan_seconds_sum_s"
        )
        explored = sum(
            value
            for (name, _), value in flat.items()
            if name == "search_states_explored_total"
        )
        # Timer sum == states explored x the modelled per-state cost —
        # deterministic, never host wall time.
        assert plan_s == pytest.approx(explored * DEFAULT_STATE_EVAL_COST_S)


class TestFinalizeHarvest:
    def test_tick_count_and_sim_time(self, flat):
        ticks = flat[("sim_ticks_total", ())]
        sim_time = flat[("sim_time_seconds", ())]
        assert ticks > 0
        assert sim_time == pytest.approx(ticks * 0.01)

    def test_energy_matches_the_metrics(self, instrumented, flat):
        avg_power = flat[("power_watts", (("rail", "total"),))]
        assert avg_power == pytest.approx(instrumented.metrics.avg_power_w)
        energy = flat[("energy_joules_total", (("rail", "total"),))]
        sim_time = flat[("sim_time_seconds", ())]
        assert energy == pytest.approx(avg_power * sim_time)

    def test_estimation_cache_stats_harvested(self, instrumented, flat):
        lookups = {
            dict(labels)["result"]: value
            for (name, labels), value in flat.items()
            if name == "estimation_cache_lookups"
        }
        assert set(lookups) == {"hits", "misses", "builds", "reuses"}

    def test_trace_points_match_recorder(self, instrumented, flat):
        assert flat[("trace_points_total", ())] == len(instrumented.trace)

    def test_finalize_is_idempotent(self, instrumented, flat):
        again = flatten_snapshot(instrumented.telemetry.snapshot())
        assert again == flat


class TestConfigKnobs:
    def test_tick_and_power_series_can_be_disabled(self, xu3):
        outcome = run(
            "hars-e",
            RunShape("swaptions", n_units=40),
            RunConfig(
                spec=xu3,
                telemetry=TelemetryConfig(
                    track_ticks=False, track_power=False
                ),
            ),
        )
        flat = flatten_snapshot(outcome.telemetry.registry.snapshot())
        assert ("sim_ticks_total", ()) not in flat
        assert not any(name == "power_watts" for name, _ in flat)
        # Everything event-driven still collects.
        assert flat[("heartbeats_total", (("app", "swaptions"),))] == 40


class TestFaultEvents:
    def test_injections_counted_by_kind(self, xu3):
        outcome = run(
            "hars-e",
            RunShape("swaptions", n_units=40),
            RunConfig(
                spec=xu3,
                faults=FaultConfig.defaults(),
                telemetry=True,
            ),
        )
        flat = flatten_snapshot(outcome.telemetry.registry.snapshot())
        injected = sum(
            value
            for (name, _), value in flat.items()
            if name == "faults_injected_total"
        )
        assert injected == outcome.fault_injector.total_injected
        assert injected > 0
