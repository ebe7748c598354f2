"""The fleet engine against the scalar tick it vectorizes.

The oracle is ``Simulation.step`` — still the engine of every
single-board run — driven on a twin node, followed by the per-node
completion join, velocity EWMA and ``DeadlineTarget.update`` the engine
folds into its tick.  Every float is compared with ``==``.
"""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.chaos import FleetFaultConfig, NodeChaosEvent
from repro.fleet.cluster import FleetCluster
from repro.fleet.config import RATE_SPAN_S, FleetConfig
from repro.fleet.engine import VELOCITY_ALPHA, FleetEngine
from repro.fleet.node import LANES, FleetNode
from repro.fleet.serving import ServerWorkload
from repro.fleet.trace import Request
from repro.heartbeats.targets import DeadlineTarget
from repro.kernel.bus import PowerSample, TickStart
from repro.mphars.manager import MpHarsManager
from repro.platform.sensor import CHANNELS


def _request(index, arrival_s, units):
    return Request(
        index=index,
        app="search",
        arrival_s=arrival_s,
        service_units=units,
        deadline_s=arrival_s + 0.5,
        heavy=False,
    )


class _ScalarTwin:
    """A node ticked by ``Simulation.step`` plus the per-node epilogue."""

    def __init__(self, node):
        self.node = node
        self.velocity = {lane: node.nominal_rate(lane) for lane in LANES}

    def step(self):
        node = self.node
        node.sim.step()
        now_s = node.sim.clock.now_s
        completions = []
        for lane in LANES:
            done = node._harvest(lane, completions)
            self.velocity[lane] += VELOCITY_ALPHA * (
                done / node.sim.tick_s - self.velocity[lane]
            )
            node.targets[lane].update(
                node.apps[lane].monitor.timed_rate(
                    now_s, RATE_SPAN_S
                ),
                node.slo[lane].percentile(node.config.percentile),
            )
        return completions


def _fingerprint(node, velocity):
    sim = node.sim
    return {
        "energy": [node.energy_j(ch) for ch in CHANNELS],
        "freqs": dict(sim.machine._freqs),
        "beats": {
            lane: [(b.time_s, b.tag) for b in node.apps[lane].log.beats]
            for lane in LANES
        },
        "loads": [t.load for lane in LANES for t in node.apps[lane].threads],
        "backlog": [node.backlog_units(lane) for lane in LANES],
        "velocity": velocity,
        "targets": [
            (
                node.targets[lane].min_rate,
                node.targets[lane].avg_rate,
                node.targets[lane].max_rate,
                node.targets[lane].last_tail_s,
            )
            for lane in LANES
        ],
        "samples": [(s.time_s, dict(s.watts)) for s in sim.sensor.samples],
    }


def _engine_fingerprint(node):
    engine = node.engine
    engine._write_back(node._row)
    velocity = {
        lane: engine.velocity.item(node._row, i)
        for i, lane in enumerate(LANES)
    }
    loads = engine.load[node._row].tolist()
    fp = _fingerprint(node, velocity)
    fp["loads"] = loads
    return fp


@pytest.mark.parametrize("lane_threads", [1, 2, 3])
def test_engine_tick_equals_the_scalar_tick(lane_threads):
    config = FleetConfig(nodes=3, requests=10, lane_threads=lane_threads)
    rng = random.Random(lane_threads)
    scalar = [_ScalarTwin(FleetNode(i, config)) for i in range(3)]
    vector = [FleetNode(i, config) for i in range(3)]
    engine = FleetEngine(vector)
    index = 0
    for tick in range(400):
        for row in range(3):
            # A masked row's clock stands still: arrivals use node time.
            now_s = scalar[row].node.sim.clock.now_s
            for _ in range(rng.choice((0, 0, 0, 1, 2))):
                units = rng.choice((0.02, 0.05, 0.3))
                request = _request(index, now_s, units)
                lane = rng.choice(LANES)
                scalar[row].node.enqueue(request, lane)
                vector[row].enqueue(request, lane)
                index += 1
            if tick == 150 and row == 1:
                scalar[row].node.set_velocity_factor(0.25)
                vector[row].set_velocity_factor(0.25)
            if tick == 220 and row == 1:
                scalar[row].node.set_velocity_factor(1.0)
                vector[row].set_velocity_factor(1.0)
            if tick % 37 == 5 and vector[row].pending:
                victim = vector[row].pending_indices()[0]
                assert scalar[row].node.cancel(victim) == vector[row].cancel(
                    victim
                )
        stepping = [True, tick % 50 != 7, True]
        got = engine.step(stepping)
        for row in range(3):
            expected = scalar[row].step() if stepping[row] else []
            assert got[row] == expected
            for lane in LANES:
                assert vector[row].est_wait_s(lane) == pytest.approx(
                    scalar[row].node.backlog_units(lane)
                    / max(
                        scalar[row].velocity[lane],
                        scalar[row].node.nominal_rate(lane) * 0.1,
                    )
                )
    assert index > 300
    for row in range(3):
        twin = scalar[row]
        want = _fingerprint(twin.node, twin.velocity)
        want["energy"] = [
            twin.node.sim.sensor.energy_j(ch) for ch in CHANNELS
        ]
        assert _engine_fingerprint(vector[row]) == want


def test_three_thread_backlog_sums_in_dispatch_order():
    lane = ServerWorkload("base", n_threads=3)
    for index, units in enumerate((0.1, 0.2, 0.3, 0.7)):
        lane.submit(index, units)
    # Thread 2 dispatches first, then 0, then 1; partial grants leave
    # three requests in service.
    lane.advance({2: 0.05})
    lane.advance({0: 0.01})
    lane.advance({1: 0.013})
    rows = lane._rows
    by_request = {
        int(rows.req[0, t]): rows.rem.item(0, t) for t in range(3)
    }
    by_thread = [rows.rem.item(0, t) for t in range(3)]
    dispatch_order = sum(by_request[i] for i in (0, 1, 2))
    # The orders disagree here, so the check below can tell them apart.
    assert dispatch_order != sum(by_thread)
    assert lane.backlog_units == 0.7 + dispatch_order


def test_target_update_matches_deadline_target():
    config = FleetConfig(nodes=1, requests=1)
    node = FleetNode(0, config)
    engine = node.engine
    rng = random.Random(3)
    reference = DeadlineTarget(
        deadline_s=config.deadline_s,
        percentile=config.percentile,
        slack=config.slack,
    )
    for _ in range(300):
        beats = rng.choice((0, 0, 1, 7, 40))
        tail = rng.choice((None, 0.0, rng.uniform(0.001, 3.0)))
        engine.now[0] = rng.choice((0.02, 1.0, 2.5, 9.0))
        engine.beats[0, 0] = beats
        engine.aged[0, 0] = 0
        engine.aged_head[0, 0] = float("inf")
        engine.tail[0, 0] = float("nan") if tail is None else tail
        engine._update_targets(engine.now > -1)
        now_s = engine.now.item(0)
        elapsed = min(now_s, RATE_SPAN_S)
        reference.update(beats / elapsed, tail)
        engine._write_back(0)
        got = node.targets["hot"]
        assert (got.min_rate, got.avg_rate, got.max_rate, got.last_tail_s) == (
            reference.min_rate,
            reference.avg_rate,
            reference.max_rate,
            reference.last_tail_s,
        )


def test_a_cluster_node_is_stepped_by_its_engine():
    config = FleetConfig(nodes=2, requests=1)
    nodes = [FleetNode(i, config) for i in range(2)]
    FleetEngine(nodes)
    with pytest.raises(SimulationError):
        nodes[0].step()
    with pytest.raises(SimulationError):
        FleetEngine(nodes[:1])


@pytest.mark.parametrize("event_type", [PowerSample, TickStart])
def test_engine_refuses_a_node_it_would_not_publish_to(event_type):
    """The engine publishes neither event, and a tick has no per-row
    prologue that could: a subscriber would silently never fire."""
    config = FleetConfig(nodes=1, requests=1)
    node = FleetNode(0, config)
    node.sim.bus.subscribe(event_type, lambda event: None)
    with pytest.raises(ConfigurationError):
        FleetEngine([node])


def test_a_cluster_node_starts_its_controllers_once_at_adoption(monkeypatch):
    starts = []
    on_start = MpHarsManager.on_start

    def counting(manager, sim):
        starts.append(sim)
        on_start(manager, sim)

    monkeypatch.setattr(MpHarsManager, "on_start", counting)
    config = FleetConfig(
        nodes=3,
        requests=60,
        chaos=FleetFaultConfig(
            schedule=(NodeChaosEvent(kind="node_crash", node=1, at_s=0.5),)
        ),
    )
    cluster = FleetCluster(config)
    booted = [node.sim for node in cluster.nodes]
    assert starts == booted
    result = cluster.run()
    # The reboot started once, when the engine adopted it; stepping
    # started nothing.
    assert result.resilience["restarts"] == 1
    assert starts == booted + [cluster.nodes[1].sim]
