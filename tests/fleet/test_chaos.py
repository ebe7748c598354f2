"""Fleet chaos config, timeline compiler, and crash delivery tests."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.chaos import (
    NODE_FAULT_KINDS,
    FleetFaultConfig,
    NodeChaosEvent,
    active_velocity_factor,
    compile_timelines,
    crash_wave,
    summarize_timelines,
)
from repro.fleet.cluster import FleetCluster
from repro.fleet.config import FleetConfig
from repro.fleet.node import LANES, FleetNode
from repro.kernel.bus import AppFinished


def _crash(node, at_s):
    return NodeChaosEvent(kind="node_crash", node=node, at_s=at_s)


class TestNodeChaosEvent:
    def test_kinds_validated(self):
        with pytest.raises(ConfigurationError):
            NodeChaosEvent(kind="node_meltdown", node=0, at_s=1.0)

    def test_negative_node_and_time_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeChaosEvent(kind="node_crash", node=-1, at_s=1.0)
        with pytest.raises(ConfigurationError):
            NodeChaosEvent(kind="node_crash", node=0, at_s=-0.1)

    def test_hang_needs_duration(self):
        with pytest.raises(ConfigurationError):
            NodeChaosEvent(kind="node_hang", node=0, at_s=1.0, duration_s=0.0)

    def test_slowdown_factor_bounds(self):
        for factor in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                NodeChaosEvent(
                    kind="node_slowdown",
                    node=0,
                    at_s=1.0,
                    duration_s=2.0,
                    factor=factor,
                )

    def test_velocity_factor(self):
        hang = NodeChaosEvent(kind="node_hang", node=0, at_s=1.0, duration_s=2.0)
        slow = NodeChaosEvent(
            kind="node_slowdown", node=0, at_s=1.0, duration_s=2.0, factor=0.25
        )
        assert hang.velocity_factor == 0.0
        assert slow.velocity_factor == 0.25


class TestFleetFaultConfig:
    def test_default_is_disabled(self):
        assert not FleetFaultConfig().enabled

    def test_schedule_or_rate_enables(self):
        assert FleetFaultConfig(schedule=(_crash(0, 1.0),)).enabled
        assert FleetFaultConfig(node_crash_rate=0.01).enabled
        assert FleetFaultConfig(node_hang_rate=0.01).enabled
        assert FleetFaultConfig(node_slowdown_rate=0.01).enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetFaultConfig(node_crash_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FleetFaultConfig(hang_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetFaultConfig(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            FleetFaultConfig(schedule=("not-an-event",))


class TestCompileTimelines:
    def test_deterministic(self):
        config = FleetFaultConfig(
            node_crash_rate=0.05, node_hang_rate=0.1, node_slowdown_rate=0.1
        )
        first = compile_timelines(config, 8, 60.0)
        second = compile_timelines(config, 8, 60.0)
        assert first == second

    def test_per_node_streams_independent_of_fleet_size(self):
        # Node k's rate-driven timeline must not change when the fleet
        # grows: a node's faults depend on nothing outside the node.
        config = FleetFaultConfig(node_crash_rate=0.05, node_hang_rate=0.1)
        small = compile_timelines(config, 4, 60.0)
        large = compile_timelines(config, 32, 60.0)
        assert small == large[:4]

    def test_horizon_cutoff(self):
        config = FleetFaultConfig(schedule=(_crash(0, 5.0), _crash(0, 50.0)))
        (timeline,) = compile_timelines(config, 1, 10.0)
        assert [event.at_s for event in timeline] == [5.0]

    def test_sorted_by_time(self):
        config = FleetFaultConfig(
            schedule=(_crash(0, 9.0), _crash(0, 1.0), _crash(0, 4.0))
        )
        (timeline,) = compile_timelines(config, 1, 20.0)
        assert [event.at_s for event in timeline] == [1.0, 4.0, 9.0]

    def test_out_of_range_schedule_node_rejected(self):
        config = FleetFaultConfig(schedule=(_crash(7, 1.0),))
        with pytest.raises(ConfigurationError):
            compile_timelines(config, 4, 10.0)

    def test_bad_args_rejected(self):
        config = FleetFaultConfig()
        with pytest.raises(ConfigurationError):
            compile_timelines(config, 0, 10.0)
        with pytest.raises(ConfigurationError):
            compile_timelines(config, 1, -1.0)

    def test_summarize_counts_by_kind(self):
        config = FleetFaultConfig(
            schedule=(
                _crash(0, 1.0),
                _crash(1, 2.0),
                NodeChaosEvent(
                    kind="node_hang", node=0, at_s=3.0, duration_s=1.0
                ),
            )
        )
        counts = summarize_timelines(compile_timelines(config, 2, 10.0))
        assert counts == {
            "node_crash": 2,
            "node_hang": 1,
            "node_slowdown": 0,
        }
        assert set(counts) == set(NODE_FAULT_KINDS)


def _chaos_cluster(*schedule):
    """A three-node fleet under a scheduled chaos timeline."""
    return FleetCluster(
        FleetConfig(
            nodes=3, requests=60, chaos=FleetFaultConfig(schedule=schedule)
        )
    )


def _ledger(cluster, reason):
    return [row for row in cluster.supervisor.ledger if row[4] == reason]


class TestCrashDelivery:
    def test_crash_halts_every_lane_and_publishes_app_finished(self):
        node = FleetNode(0, FleetConfig(nodes=1, requests=1))
        finished = []
        node.sim.bus.subscribe(AppFinished, finished.append)
        engine = node.engine
        for _ in range(3):
            node.step()
        engine.crash(0)
        assert node.crashed
        assert engine.halted[0].tolist() == [True] * len(LANES)
        assert [(e.app_name, e.time_s) for e in finished] == [
            (lane, node.sim.clock.now_s) for lane in LANES
        ]

    def test_a_crash_at_time_zero_fires(self):
        result = _chaos_cluster(*crash_wave(3, 1.0, at_s=0.0)).run()
        assert result.resilience["crashes"] == 3

    def test_a_rebooted_node_reads_crash_times_from_its_boot(self):
        # A first crash at 1.0 s; the node reboots a restart delay
        # after the crash is seen.
        first = _chaos_cluster(_crash(1, 1.0))
        first.run()
        ((reboot_s, node, *_),) = _ledger(first, "restart")
        assert node == 1
        # The reboot owns a crash exactly at its boot time; a crash
        # while the node is down is dropped.
        cluster = _chaos_cluster(
            _crash(1, 1.0), _crash(1, reboot_s - 0.5), _crash(1, reboot_s)
        )
        result = cluster.run()
        assert result.resilience["crashes"] == 2
        # Seen at the end of the new incarnation's first tick.
        second = _ledger(cluster, "crash")[1]
        assert second[:2] == (
            pytest.approx(reboot_s + cluster.config.tick_s),
            1,
        )

    def test_a_hang_only_timeline_never_halts_a_lane(self):
        cluster = _chaos_cluster(
            NodeChaosEvent(kind="node_hang", node=0, at_s=0.5, duration_s=1.0),
            NodeChaosEvent(
                kind="node_slowdown", node=2, at_s=0.2, duration_s=2.0
            ),
        )
        result = cluster.run()
        assert result.resilience["crashes"] == 0
        assert not cluster.engine.halted.any()
        assert not any(
            app.halted for node in cluster.nodes for app in node.apps.values()
        )


class TestActiveVelocityFactor:
    def test_quiet_timeline_is_nominal(self):
        assert active_velocity_factor((), 1.0) == 1.0
        assert active_velocity_factor((_crash(0, 1.0),), 1.0) == 1.0

    def test_hang_and_slowdown_episodes(self):
        timeline = (
            NodeChaosEvent(
                kind="node_slowdown", node=0, at_s=1.0, duration_s=4.0,
                factor=0.25,
            ),
            NodeChaosEvent(kind="node_hang", node=0, at_s=2.0, duration_s=1.0),
        )
        assert active_velocity_factor(timeline, 0.5) == 1.0
        assert active_velocity_factor(timeline, 1.5) == 0.25
        # Overlap: the hang wins (min factor).
        assert active_velocity_factor(timeline, 2.5) == 0.0
        assert active_velocity_factor(timeline, 4.0) == 0.25
        assert active_velocity_factor(timeline, 5.5) == 1.0


class TestCrashWave:
    def test_ten_percent_wave(self):
        wave = crash_wave(50, 0.10, 5.0)
        assert len(wave) == 5
        assert all(event.kind == "node_crash" for event in wave)
        assert all(event.at_s == 5.0 for event in wave)
        assert len({event.node for event in wave}) == 5

    def test_deterministic_and_strided(self):
        assert crash_wave(50, 0.10, 5.0) == crash_wave(50, 0.10, 5.0)
        nodes = [event.node for event in crash_wave(10, 0.3, 1.0)]
        assert nodes == sorted(nodes)
        assert max(nodes) < 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            crash_wave(0, 0.1, 1.0)
        with pytest.raises(ConfigurationError):
            crash_wave(10, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            crash_wave(10, 1.5, 1.0)
        with pytest.raises(ConfigurationError):
            crash_wave(10, 0.1, -1.0)
