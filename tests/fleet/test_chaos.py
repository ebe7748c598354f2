"""Fleet chaos config, timeline compiler, and delivery-helper tests."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.config import FaultConfig, lane_crash_schedule
from repro.fleet.chaos import (
    NODE_FAULT_KINDS,
    FleetFaultConfig,
    NodeChaosEvent,
    active_velocity_factor,
    compile_timelines,
    crash_fault_config,
    crash_wave,
    summarize_timelines,
)


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
            FleetFaultConfig(restart_delay_s=-1.0)
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


class TestCrashFaultConfig:
    def test_crashes_become_lane_lifecycle_events(self):
        timeline = (_crash(0, 3.0), _crash(0, 7.0))
        compiled = crash_fault_config(timeline, ("hot", "base"))
        assert compiled.enabled
        events = compiled.lifecycle_schedule
        assert [event.kind for event in events] == ["app_crash"] * 4
        assert [event.at_s for event in events] == [3.0, 3.0, 7.0, 7.0]
        assert {event.target for event in events} == {"hot", "base"}

    def test_epoch_offset_makes_times_sim_local(self):
        timeline = (_crash(0, 3.0), _crash(0, 7.0))
        compiled = crash_fault_config(timeline, ("base",), after_s=3.0)
        # The 3.0 crash already happened (it caused this reboot); only
        # the 7.0 crash survives, at local time 4.0.
        assert [event.at_s for event in compiled.lifecycle_schedule] == [4.0]

    def test_no_crashes_means_disabled_config(self):
        hang = NodeChaosEvent(kind="node_hang", node=0, at_s=1.0, duration_s=2.0)
        compiled = crash_fault_config((hang,), ("hot", "base"))
        assert isinstance(compiled, FaultConfig)
        assert not compiled.enabled

    def test_lane_crash_schedule_validates(self):
        with pytest.raises(ConfigurationError):
            lane_crash_schedule([1.0], apps=())
        with pytest.raises(ConfigurationError):
            lane_crash_schedule([-1.0], apps=("base",))


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
