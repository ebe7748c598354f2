"""The event-driven resilience bookkeeping against the per-node rules.

The cluster visits a node only when its state can change: chaos
episodes come off a heap of boundary times, crashes off an array of
next-crash times, the supervisor keeps its stepping mask and DOWN and
PROBATION sets on every transition, and the post-step pass resets the
stall clocks of settled nodes in bulk.  Each test here runs a chaotic
cluster tick by tick with probes on those phases, and checks every tick
against the rules the cluster used to apply to every node, kept here as
the oracle:

* every stepping node's lane factors equal
  ``active_velocity_factor(timeline, now_s)``;
* the nodes that crash are those whose oldest pending crash, read in
  the node's own clock, falls before its tick ends;
* the stepping mask equals ``health in STEPPING_STATES`` over the
  records after every transition, and reboots and probation expiries
  match a scan of every record;
* the records, stall clocks and ledger equal those of an ``observe``
  call per stepped node, and every pending count used equals
  ``node.pending``;
* the admission depth equals the per-node ``queue_len`` sum.
"""

from __future__ import annotations

import copy
from collections import deque

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetFaultConfig, NodeChaosEvent
from repro.fleet.chaos import active_velocity_factor, crash_wave
from repro.fleet.cluster import FleetCluster
from repro.fleet.node import FleetNode
from repro.fleet.resilience import AdmissionController, ResilienceConfig
from repro.fleet.supervisor import (
    SETTLED_STATES,
    STEPPING_STATES,
    FleetSupervisor,
    NodeHealth,
)
from tests.golden import (
    FLEET_CHAOS_CONFIG,
    FLEET_CRASH_REBOOT_CRASH_CONFIG,
    FLEET_HANG_LADDER_CONFIG,
    load_golden,
    outcome_digest,
)

_TIME_EPS = 1e-12
_TICK_S = FleetConfig().tick_s


def _on_tick(tick: int) -> float:
    """Cluster time of ``tick``, computed as the cluster computes it."""
    return tick * _TICK_S


#: Node 0 crashes at 0.5 s and reboots inside a hang on [0.6, 3.0);
#: node 1's hang starts and ends exactly on ticks 25 and 60, inside a
#: slowdown; node 2's slowdown starts exactly on tick 10 and it crashes
#: in it; node 3 has only crashes, rebooting once.
_EDGE_SCHEDULE = (
    NodeChaosEvent(kind="node_crash", node=0, at_s=0.5),
    NodeChaosEvent(kind="node_hang", node=0, at_s=0.6, duration_s=2.4),
    NodeChaosEvent(
        kind="node_slowdown", node=1, at_s=0.2, duration_s=2.0, factor=0.5
    ),
    NodeChaosEvent(
        kind="node_hang",
        node=1,
        at_s=_on_tick(25),
        duration_s=_on_tick(60) - _on_tick(25),
    ),
    NodeChaosEvent(
        kind="node_slowdown", node=2, at_s=_on_tick(10), duration_s=1.0
    ),
    NodeChaosEvent(kind="node_crash", node=2, at_s=0.7),
    NodeChaosEvent(kind="node_crash", node=3, at_s=0.3),
    NodeChaosEvent(kind="node_crash", node=3, at_s=2.5),
)

EDGE_CONFIG = FleetConfig(
    nodes=6,
    requests=240,
    seed=3,
    chaos=FleetFaultConfig(seed=3, schedule=_EDGE_SCHEDULE),
    resilience=ResilienceConfig(
        stall_after_s=0.3,
        attempt_timeout_s=1.0,
        hedge_fraction=0.6,
        brownout_queue_depth=1.0,
    ),
)

#: A small ``fleet_chaos``: seeded hazards of every kind, a crash wave,
#: retries, hedging and brownout admission on a burst trace.
SEEDED_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=1,
    trace="burst",
    chaos=FleetFaultConfig(
        seed=1,
        node_crash_rate=0.02,
        node_hang_rate=0.05,
        node_slowdown_rate=0.05,
        hang_duration_s=1.0,
        schedule=crash_wave(20, 0.10, at_s=1.0),
    ),
    resilience=ResilienceConfig(
        attempt_timeout_s=1.0, hedge_fraction=0.6, brownout_queue_depth=2.0
    ),
)


def _old_restarts_due(sup, now_s):
    return [
        record.index
        for record in sup.records
        if record.health is NodeHealth.DOWN
        and record.restart_due_s is not None
        and record.restart_due_s <= now_s + _TIME_EPS
    ]


def _supervisor_state(sup):
    return (
        sup.records,
        sup.last_progress_s.tolist(),
        sup.stall_rung.tolist(),
        sup.ledger,
        (sup.crashes, sup.restarts, sup.evictions),
    )


class _Probe:
    """Runs a cluster with every resilience phase checked per tick."""

    def __init__(self, cluster: FleetCluster, monkeypatch):
        self.cluster = cluster
        self.now_s = 0.0
        self.ticks = 0
        self.crash_ticks = []  # (tick, node) the cluster crashed
        self.oracle_crash_ticks = []  # (tick, node) the old rule crashes
        self.factor_checks = 0
        self.bulk_rows = 0
        self.depth_checks = 0
        self.transitions = 0
        self.velocity_sets = []
        # The old per-node crash bookkeeping, on its own copy.
        self.crashes = [deque(c) for c in cluster._crashes]
        sup = cluster.supervisor
        engine = cluster.engine
        begin, post, step = (
            cluster._begin_tick,
            cluster._post_step,
            engine.step,
        )
        restart, crash = cluster._restart_node, engine.crash
        transition = sup._transition

        def probed_begin(tick, now_s):
            self.now_s = now_s
            self.tick = tick
            expected = _old_restarts_due(sup, now_s)
            assert sup.restarts_due(now_s) == expected
            probation = [
                r.index
                for r in sup.records
                if r.health is NodeHealth.PROBATION
                and now_s + _TIME_EPS >= r.probation_until_s
            ]
            begin(tick, now_s)
            for index in probation:
                assert sup.health(index) is NodeHealth.HEALTHY
            # The old crash rule, over every stepping node.
            for index, node in enumerate(cluster.nodes):
                crashes = self.crashes[index]
                if not sup.records[index].health in STEPPING_STATES:
                    continue
                end = engine.now.item(index) + cluster.config.tick_s - _TIME_EPS
                if crashes and crashes[0] - node.epoch_s < end:
                    while crashes and crashes[0] - node.epoch_s < end:
                        crashes.popleft()
                    self.oracle_crash_ticks.append((tick, index))

        def probed_restart(node_index, tick, now_s):
            crashes = self.crashes[node_index]
            while crashes and crashes[0] < now_s:
                crashes.popleft()
            restart(node_index, tick, now_s)

        def probed_crash(row):
            self.crash_ticks.append((self.tick, row))
            crash(row)

        def probed_step(stepping=None):
            self.ticks += 1
            assert stepping is sup.stepping
            expected = [r.health in STEPPING_STATES for r in sup.records]
            assert stepping.tolist() == expected
            factors = engine.serving.factor
            for index, timeline in enumerate(cluster._timelines):
                if not expected[index]:
                    continue
                want = active_velocity_factor(timeline, self.now_s)
                assert factors[index].tolist() == [want] * len(
                    engine.lane_names
                ), (self.now_s, index)
                self.factor_checks += 1
            return step(stepping)

        def probed_post(tick, now_s, progressed):
            oracle = copy.deepcopy(sup)
            del oracle._transition  # the probe's, bound to ``sup``
            held = engine.serving.held()
            for index, node in enumerate(cluster.nodes):
                if oracle.health(index) in (NodeHealth.DOWN, NodeHealth.EVICTED):
                    continue
                if node.crashed:
                    oracle.on_crash(index, now_s)
                    continue
                assert held.item(index) == node.pending
                oracle.observe(index, now_s, bool(progressed[index]), node.pending)
                if sup.health(index) in SETTLED_STATES and (
                    progressed[index] or node.pending == 0
                ):
                    self.bulk_rows += 1
            post(tick, now_s, progressed)
            assert _supervisor_state(sup) == _supervisor_state(oracle)

        def probed_transition(record, to, now_s, reason):
            transition(record, to, now_s, reason)
            self.transitions += 1
            healths = [r.health for r in sup.records]
            assert sup.stepping.tolist() == [
                h in STEPPING_STATES for h in healths
            ]
            assert sup.settled.tolist() == [h in SETTLED_STATES for h in healths]
            for state in (NodeHealth.DOWN, NodeHealth.PROBATION):
                assert sup._members[state] == {
                    i for i, h in enumerate(healths) if h is state
                }

        update = AdmissionController.update

        def probed_update(controller, depth, best_wait):
            routable = sup.routable(cluster.nodes)
            old = sum(
                node.queue_len("hot") + node.queue_len("base")
                for node in routable
            ) / len(routable)
            assert depth == old
            self.depth_checks += 1
            return update(controller, depth, best_wait)

        set_factor = FleetNode.set_velocity_factor

        def probed_set(node, factor):
            self.velocity_sets.append(node.index)
            set_factor(node, factor)

        cluster._begin_tick = probed_begin
        cluster._post_step = probed_post
        cluster._restart_node = probed_restart
        engine.step = probed_step
        engine.crash = probed_crash
        sup._transition = probed_transition
        monkeypatch.setattr(AdmissionController, "update", probed_update)
        monkeypatch.setattr(FleetNode, "set_velocity_factor", probed_set)

    def run(self):
        result = self.cluster.run()
        assert self.crash_ticks == self.oracle_crash_ticks
        assert self.ticks > 0 and self.factor_checks > 0
        return result


def _probed_run(config, monkeypatch, router="deadline-risk"):
    cluster = FleetCluster(config, router=router)
    probe = _Probe(cluster, monkeypatch)
    return cluster, probe, probe.run()


class TestAgainstPerNodeRules:
    def test_edge_schedule(self, monkeypatch):
        cluster, probe, result = _probed_run(EDGE_CONFIG, monkeypatch)
        # The schedule's edges really happened: node 0 rebooted inside
        # its hang, the boundaries on ticks are exact, node 2 crashed in
        # its slowdown, and node 3 crashed in two incarnations.
        restarts = [
            (t, n) for t, n, *_, reason in cluster.supervisor.ledger
            if reason == "restart"
        ]
        assert any(n == 0 and 0.6 < t < 3.0 for t, n in restarts)
        assert _on_tick(25) + _on_tick(60) - _on_tick(25) == _on_tick(60)
        crashed = {n for _, n in probe.crash_ticks}
        assert {0, 2, 3} <= crashed
        assert sum(1 for _, n in probe.crash_ticks if n == 3) == 2
        # Nodes 4 and 5 have no episode: never visited.
        assert not {4, 5} & set(probe.velocity_sets)
        # Reboots of node 3, which has no episode, set no factor either.
        assert 3 not in probe.velocity_sets
        assert probe.transitions > 0 and probe.depth_checks > 0
        assert probe.bulk_rows > 0
        assert result.completed > 0

    def test_hang_on_tick_boundaries(self, monkeypatch):
        cluster, probe, _ = _probed_run(EDGE_CONFIG, monkeypatch)
        # Node 1 is set to a hang exactly on tick 25 and back to the
        # slowdown exactly on tick 60 (the per-tick check pins the
        # values; here, that the changes land on those very ticks).
        timeline = cluster._timelines[1]
        assert active_velocity_factor(timeline, _on_tick(24)) == 0.5
        assert active_velocity_factor(timeline, _on_tick(25)) == 0.0
        assert active_velocity_factor(timeline, _on_tick(59)) == 0.0
        assert active_velocity_factor(timeline, _on_tick(60)) == 0.5
        assert probe.velocity_sets.count(1) == 4

    def test_seeded_chaos(self, monkeypatch):
        cluster, probe, result = _probed_run(SEEDED_CONFIG, monkeypatch)
        assert result.resilience["crashes"] > 0
        assert result.resilience["restarts"] > 0
        assert result.resilience["hedges"] > 0
        assert result.resilience["demoted"] > 0
        assert len(probe.velocity_sets) > 0
        assert probe.depth_checks > 0

    def test_fleet_chaos_journey(self, monkeypatch):
        """The benchmark's own chaotic journey, every tick of it."""
        cluster, probe, result = _probed_run(FLEET_CHAOS_CONFIG, monkeypatch)
        assert result.completed == FLEET_CHAOS_CONFIG.requests
        assert probe.crash_ticks and probe.velocity_sets
        # Few nodes have an episode inside the journey: the per-node
        # loop set a factor on every stepping node every tick.
        assert len(probe.velocity_sets) * 100 < probe.factor_checks

    @pytest.mark.parametrize(
        "name, config",
        [
            ("fleet-deadline-risk-x20-hang-ladder", FLEET_HANG_LADDER_CONFIG),
            (
                "fleet-deadline-risk-x20-crash-reboot-crash",
                FLEET_CRASH_REBOOT_CRASH_CONFIG,
            ),
        ],
    )
    def test_golden_fleets(self, monkeypatch, name, config):
        cluster, probe, result = _probed_run(config, monkeypatch)
        assert probe.transitions > 0
        assert outcome_digest(result) == load_golden()[name]


class TestSupervisorState:
    def test_triage_matches_observe(self):
        """Each masked node's outcome equals an ``observe`` call."""
        config = ResilienceConfig(stall_after_s=0.5)
        chaos = FleetFaultConfig(node_crash_rate=0.01)
        sup = FleetSupervisor(config, chaos, 7)
        sup.observe(1, 1.0, False, 2)  # DEGRADED
        sup.observe(2, 1.0, False, 2)
        sup.observe(2, 1.1, False, 2)  # QUARANTINED
        sup.on_crash(3, 1.0)
        sup.on_restarted(3, 2.0)  # PROBATION
        sup.on_crash(6, 1.0)
        sup.on_restarted(6, 2.3)  # PROBATION, stall clock at 2.3
        oracle = copy.deepcopy(sup)
        live = np.array([True, True, True, True, True, False, True])
        progressed = np.array([False, True, False, False, True, False, False])
        pending = np.array([3, 1, 0, 0, 2, 0, 2])
        now_s = 2.6
        rest = sup.triage(now_s, live, progressed, pending)
        for index in np.flatnonzero(rest).tolist():
            sup.observe(
                index, now_s, progressed.item(index), pending.item(index)
            )
        for index in np.flatnonzero(live).tolist():
            oracle.observe(
                index, now_s, progressed.item(index), pending.item(index)
            )
        assert _supervisor_state(sup) == _supervisor_state(oracle)
        # Node 0 is past its stall threshold and nodes 1 and 2 recover
        # (a transition), through observe; nodes 3 (in probation, idle)
        # and 4 reset in bulk; node 6 is still under the threshold.
        assert np.flatnonzero(rest).tolist() == [0, 1, 2]
