"""FleetSupervisor state-machine tests (node-granularity PR 3 machine)."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.chaos import FleetFaultConfig
from repro.fleet.resilience import PROBATION_S, ResilienceConfig
from repro.fleet.supervisor import (
    STEPPING_STATES,
    FleetSupervisor,
    NodeHealth,
)


class _Stub:
    """Just enough of a FleetNode for routable(): an index."""

    def __init__(self, index):
        self.index = index


def _supervisor(nodes=4, chaos=None, **overrides):
    config = ResilienceConfig(**overrides)
    if chaos is None:
        chaos = FleetFaultConfig(node_crash_rate=0.01)
    return FleetSupervisor(config, chaos, nodes), [_Stub(i) for i in range(nodes)]


class TestCrashLifecycle:
    def test_crash_goes_down_then_probation_then_healthy(self):
        # RESTART_DELAY_S and PROBATION_S are both 1 s.
        chaos = FleetFaultConfig(node_crash_rate=0.01, max_restarts=2)
        sup, _ = _supervisor(chaos=chaos)
        assert sup.on_crash(0, 2.0) is NodeHealth.DOWN
        assert not sup.is_stepping(0)
        assert sup.restarts_due(2.5) == []
        assert sup.restarts_due(3.0) == [0]
        sup.on_restarted(0, 3.0)
        assert sup.health(0) is NodeHealth.PROBATION
        assert sup.is_stepping(0)
        sup.tick(3.5)
        assert sup.health(0) is NodeHealth.PROBATION
        sup.tick(4.0)
        assert sup.health(0) is NodeHealth.HEALTHY
        assert sup.crashes == 1
        assert sup.restarts == 1

    def test_crash_budget_spent_evicts(self):
        chaos = FleetFaultConfig(node_crash_rate=0.01, max_restarts=1)
        sup, _ = _supervisor(chaos=chaos)
        assert sup.on_crash(0, 1.0) is NodeHealth.DOWN
        sup.on_restarted(0, 2.0)
        assert sup.on_crash(0, 5.0) is NodeHealth.EVICTED
        assert not sup.is_stepping(0)
        assert sup.restarts_due(100.0) == []
        assert sup.evictions == 1

    def test_zero_restart_budget_evicts_immediately(self):
        chaos = FleetFaultConfig(node_crash_rate=0.01, max_restarts=0)
        sup, _ = _supervisor(chaos=chaos)
        assert sup.on_crash(0, 1.0) is NodeHealth.EVICTED


class TestStallEscalation:
    def test_one_rung_per_tick_even_for_a_deep_stall(self):
        # stall_after_s=2, quarantine at 4s, evict at 8s.  First
        # observation at t=10 is already past every threshold, but
        # escalation still walks DEGRADED -> QUARANTINED -> EVICTED one
        # tick at a time.
        sup, _ = _supervisor(stall_after_s=2.0)
        assert sup.observe(0, 10.0, False, pending=3) is NodeHealth.DEGRADED
        assert sup.observe(0, 10.1, False, pending=3) is NodeHealth.QUARANTINED
        assert not sup.routable([_Stub(0)])  # quarantined: steps, no traffic
        assert sup.is_stepping(0)
        assert sup.observe(0, 10.2, False, pending=3) is NodeHealth.EVICTED
        assert sup.evictions == 1

    def test_short_stall_only_degrades(self):
        sup, _ = _supervisor(stall_after_s=2.0)
        assert sup.observe(0, 2.5, False, pending=1) is NodeHealth.DEGRADED
        # Still under the quarantine threshold: no further escalation.
        assert sup.observe(0, 3.0, False, pending=1) is NodeHealth.DEGRADED

    def test_completion_fully_recovers(self):
        sup, _ = _supervisor(stall_after_s=2.0)
        sup.observe(0, 10.0, False, pending=3)
        sup.observe(0, 10.1, False, pending=3)
        assert sup.health(0) is NodeHealth.QUARANTINED
        assert sup.observe(0, 10.2, True, pending=2) is NodeHealth.HEALTHY
        # The rung reset means a fresh stall starts from DEGRADED again.
        assert sup.observe(0, 13.0, False, pending=2) is NodeHealth.DEGRADED

    def test_idle_node_never_stalls(self):
        sup, _ = _supervisor(stall_after_s=2.0)
        for now in (5.0, 10.0, 50.0):
            assert sup.observe(0, now, False, pending=0) is NodeHealth.HEALTHY


class TestRoutable:
    def test_prefers_healthy_then_probation_then_degraded(self):
        sup, nodes = _supervisor(nodes=3)
        assert sup.routable(nodes) == nodes
        sup.on_crash(0, 1.0)
        sup.on_restarted(0, 2.0)                     # node 0: PROBATION
        sup.observe(1, 10.0, False, pending=1)       # node 1: DEGRADED
        picked = sup.routable(nodes)
        assert [n.index for n in picked] == [2]      # healthy wins
        sup.observe(2, 10.0, False, pending=1)       # node 2: DEGRADED too
        assert [n.index for n in sup.routable(nodes)] == [0]
        sup.on_crash(0, 11.0)                        # probation node dies
        assert [n.index for n in sup.routable(nodes)] == [1, 2]

    def test_empty_when_everything_is_down(self):
        sup, nodes = _supervisor(nodes=2)
        sup.on_crash(0, 1.0)
        sup.on_crash(1, 1.0)
        assert sup.routable(nodes) == []

    def test_failover_off_returns_everything(self):
        sup, nodes = _supervisor(nodes=2, failover=False)
        sup.on_crash(0, 1.0)
        assert sup.routable(nodes) == nodes


class TestBookkeeping:
    def test_ledger_records_every_transition(self):
        chaos = FleetFaultConfig(node_crash_rate=0.01)
        sup, _ = _supervisor(chaos=chaos)
        sup.on_crash(1, 2.0)
        sup.on_restarted(1, 3.0)
        sup.tick(3.0 + PROBATION_S)
        assert [row[1:] for row in sup.ledger] == [
            (1, "healthy", "down", "crash"),
            (1, "down", "probation", "restart"),
            (1, "probation", "healthy", "probation-served"),
        ]

    def test_counts_snapshot(self):
        sup, _ = _supervisor(nodes=3)
        sup.on_crash(0, 1.0)
        counts = sup.counts()
        assert counts["down"] == 1
        assert counts["healthy"] == 2
        assert sum(counts.values()) == 3

    def test_stepping_states_exclude_down_and_evicted(self):
        assert NodeHealth.DOWN not in STEPPING_STATES
        assert NodeHealth.EVICTED not in STEPPING_STATES
        assert NodeHealth.QUARANTINED in STEPPING_STATES

    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            FleetSupervisor(ResilienceConfig(), None, 0)
