"""Resilience layer end-to-end tests.

The load-bearing properties, in the order the classes assert them:

* **Zero-chaos bit-identity** — a fully disabled ``FleetFaultConfig``
  must leave every router bit-identical to a fleet built without a
  chaos layer at all.
* **Failover accounting** — with failover on, crash-stranded requests
  re-queue to survivors within two cluster ticks; with failover off
  they are lost outright and show up under
  ``unserved_causes["lost_to_crash_then_requeued"]``.
* **Cause partition** — ``unserved_causes`` always sums to ``unserved``.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.fleet.chaos import FleetFaultConfig, NodeChaosEvent, crash_wave
from repro.fleet.cluster import UNSERVED_CAUSES, run_fleet
from repro.fleet.config import FleetConfig
from repro.fleet.resilience import (
    BACKOFF_CAP_S,
    RETRY_BACKOFF_S,
    AdmissionController,
    ResilienceConfig,
    backoff_s,
)
from repro.telemetry.registry import flatten_snapshot

_BASE = FleetConfig(nodes=6, requests=400)

#: A third of the small fleet crashing mid-arrivals.
_WAVE = FleetFaultConfig(schedule=crash_wave(6, 1 / 3, 3.0))


def _with(config=_BASE, **overrides):
    return dataclasses.replace(config, **overrides)


@pytest.fixture(scope="module")
def wave_on():
    """Crash wave with failover (default resilience)."""
    return run_fleet("deadline-risk", _with(chaos=_WAVE))


@pytest.fixture(scope="module")
def wave_off():
    """Same crash wave, failover ablated."""
    return run_fleet(
        "deadline-risk",
        _with(chaos=_WAVE, resilience=ResilienceConfig(failover=False)),
    )


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(stall_after_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(attempt_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(hedge_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(shed_queue_depth=0.0)

    def test_enablement_queries(self):
        assert not ResilienceConfig().retry_enabled
        assert not ResilienceConfig().hedge_enabled
        assert not ResilienceConfig().admission_enabled
        assert not ResilienceConfig().tracking_enabled
        assert ResilienceConfig(attempt_timeout_s=1.0).tracking_enabled
        assert ResilienceConfig(hedge_fraction=0.5).tracking_enabled
        assert ResilienceConfig(shed_wait_s=1.0).admission_enabled

    def test_backoff_doubles_and_caps(self):
        assert backoff_s(1) == RETRY_BACKOFF_S
        assert backoff_s(2) == 2 * RETRY_BACKOFF_S
        assert backoff_s(3) == 4 * RETRY_BACKOFF_S
        assert backoff_s(4) == BACKOFF_CAP_S  # 8 × 0.05 reaches the cap
        assert backoff_s(5) == BACKOFF_CAP_S  # capped
        with pytest.raises(ConfigurationError):
            backoff_s(0)


class TestAdmissionController:
    def test_hysteresis_holds_state_between_trip_and_release(self):
        config = ResilienceConfig(shed_queue_depth=10.0)
        admission = AdmissionController(config)
        assert admission.update(5.0, 0.0) == "normal"
        assert admission.update(11.0, 0.0) == "shed"
        # Below the trip level but above RELEASE_FRACTION x trip (8.0):
        # still shedding.
        assert admission.update(9.0, 0.0) == "shed"
        assert admission.update(7.9, 0.0) == "normal"
        assert admission.ticks == {"normal": 2, "brownout": 0, "shed": 2}

    def test_brownout_sits_between_normal_and_shed(self):
        config = ResilienceConfig(
            shed_queue_depth=10.0, brownout_queue_depth=4.0
        )
        admission = AdmissionController(config)
        assert admission.update(5.0, 0.0) == "brownout"
        assert admission.update(11.0, 0.0) == "shed"
        # Shed clears but brownout has not: step down one level only.
        assert admission.update(5.0, 0.0) == "brownout"
        assert admission.update(3.0, 0.0) == "normal"

    def test_wait_signal_trips_shed(self):
        config = ResilienceConfig(shed_wait_s=1.0)
        admission = AdmissionController(config)
        assert admission.update(0.0, 2.0) == "shed"
        assert admission.update(0.0, 0.5) == "normal"


class TestZeroChaosIdentity:
    """Disabled chaos config == no chaos layer, bit for bit."""

    @pytest.mark.parametrize(
        "router", ["round-robin", "deadline-risk", "least-loaded"]
    )
    def test_disabled_config_is_invisible(self, router):
        small = _with(nodes=4, requests=200)
        plain = run_fleet(router, small)
        chaosless = run_fleet(router, _with(small, chaos=FleetFaultConfig()))
        assert plain.summary() == chaosless.summary()


class TestCrashFailover:
    def test_wave_is_fully_served_with_failover(self, wave_on):
        assert wave_on.completed == _BASE.requests
        assert wave_on.unserved == 0
        assert wave_on.resilience["crashes"] == 2
        assert wave_on.resilience["restarts"] == 2
        assert wave_on.resilience["evictions"] == 0

    def test_requeue_lands_within_two_ticks(self, wave_on):
        # The eviction->reroute latency gate from the ISSUE.
        assert wave_on.resilience["requeued"] > 0
        assert wave_on.resilience["max_requeue_ticks"] <= 2

    def test_failover_off_loses_stranded_requests(self, wave_off):
        lost = wave_off.unserved_causes["lost_to_crash_then_requeued"]
        assert lost > 0
        assert wave_off.completed < _BASE.requests
        assert wave_off.resilience["requeued"] == 0

    def test_zero_restart_budget_evicts(self):
        chaos = FleetFaultConfig(
            schedule=crash_wave(6, 1 / 3, 3.0), max_restarts=0
        )
        result = run_fleet("deadline-risk", _with(chaos=chaos))
        assert result.resilience["evictions"] == 2
        assert result.resilience["restarts"] == 0
        # Survivors absorb the re-queued work.
        assert result.completed + result.unserved == _BASE.requests

    def test_health_ledger_exported_as_gauge(self, wave_on):
        flat = flatten_snapshot(wave_on.registry.snapshot())
        names = {name for name, _ in flat}
        assert "fleet_node_health" in names
        assert "fleet_unserved_causes" in names
        assert "fleet_node_crashes_total" in names
        assert "fleet_requests_requeued_total" in names


class TestRetryAndHedge:
    def test_hang_triggers_retries_elsewhere(self):
        chaos = FleetFaultConfig(
            schedule=(
                NodeChaosEvent(
                    kind="node_hang", node=0, at_s=1.0, duration_s=6.0
                ),
                NodeChaosEvent(
                    kind="node_hang", node=1, at_s=1.0, duration_s=6.0
                ),
            )
        )
        resilience = ResilienceConfig(attempt_timeout_s=0.5)
        result = run_fleet(
            "least-loaded",
            _with(nodes=4, requests=300, chaos=chaos, resilience=resilience),
        )
        assert result.resilience["retries"] > 0
        assert result.completed + result.unserved == 300
        causes = result.unserved_causes
        assert sum(causes.values()) == result.unserved

    def test_hedging_duplicates_slow_requests(self):
        chaos = FleetFaultConfig(
            schedule=(
                NodeChaosEvent(
                    kind="node_slowdown",
                    node=0,
                    at_s=1.0,
                    duration_s=5.0,
                    factor=0.1,
                ),
            )
        )
        resilience = ResilienceConfig(hedge_fraction=0.5)
        result = run_fleet(
            "least-loaded",
            _with(nodes=4, requests=300, chaos=chaos, resilience=resilience),
        )
        assert result.resilience["hedges"] > 0
        assert result.resilience["hedge_wins"] <= result.resilience["hedges"]
        # First-completion-wins: nothing is double counted.
        assert result.completed <= 300
        assert result.completed + result.unserved == 300

    def test_hedge_goes_to_a_node_other_than_its_primary(self):
        # A tiny hedge fraction hedges most requests on a two-node
        # fleet, so the primary is often the least-loaded node; a hedge
        # that did not skip it would route the request there twice.
        result = run_fleet(
            "least-loaded",
            _with(
                nodes=2,
                requests=200,
                seed=1,
                resilience=ResilienceConfig(hedge_fraction=0.2),
            ),
        )
        assert result.resilience["hedges"] > 100
        assert result.completed == 200


class TestAdmissionEndToEnd:
    def test_overload_sheds_and_demotes(self):
        # The burst trace's on-windows run at three times the base rate
        # and overload a two-node fleet.
        resilience = ResilienceConfig(
            shed_queue_depth=3.0, brownout_queue_depth=1.5
        )
        result = run_fleet(
            "deadline-risk",
            _with(
                nodes=2,
                requests=400,
                trace="burst",
                resilience=resilience,
            ),
        )
        assert result.resilience["shed"] > 0
        assert result.resilience["demoted"] > 0
        assert result.unserved_causes["shed"] == result.resilience["shed"]
        assert result.completed + result.unserved == 400

    def test_causes_partition_the_unserved_count(self, wave_off):
        causes = wave_off.unserved_causes
        assert set(causes) == set(UNSERVED_CAUSES)
        assert all(count >= 0 for count in causes.values())
        assert sum(causes.values()) == wave_off.unserved
