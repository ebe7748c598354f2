"""FleetNode completion mapping, router policy and candidate-set tests."""

import dataclasses
import random
import types

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fleet import cluster as cluster_module
from repro.fleet.chaos import crash_wave
from repro.fleet.cluster import FleetCluster
from repro.fleet.config import FleetConfig, FleetFaultConfig, ResilienceConfig
from repro.fleet.engine import FleetEngine
from repro.fleet.node import LANES, FleetNode
from repro.fleet.router import ROUTERS, Candidates, make_router
from repro.fleet.trace import Request


def _request(index, arrival_s=0.0, units=0.05, budget=0.5):
    return Request(
        index=index,
        app="search",
        arrival_s=arrival_s,
        service_units=units,
        deadline_s=arrival_s + budget,
        heavy=False,
    )


@pytest.fixture(scope="module")
def config():
    return FleetConfig(nodes=2, requests=10)


class TestFleetNode:
    @pytest.mark.parametrize(
        "field, value",
        [("tick_s", 0.05), ("percentile", 99.0)],
    )
    def test_engine_refuses_a_node_with_another_config(
        self, config, field, value
    ):
        """The engine steps every row with its own config's tick, rate
        span and percentile, so a row built from another config would
        run on the wrong ones (a 0.05 s node stepped at 0.02 s)."""
        other = dataclasses.replace(config, **{field: value})
        engine = FleetNode(0, config).engine
        with pytest.raises(ConfigurationError):
            engine.replace(0, FleetNode(0, other))
        with pytest.raises(ConfigurationError):
            FleetEngine([FleetNode(0, config), FleetNode(1, other)])

    def test_idle_node_steps_quietly(self, config):
        node = FleetNode(0, config)
        for _ in range(5):
            assert node.step() == []
        assert node.pending == 0

    def test_request_completes_with_latency(self, config):
        node = FleetNode(0, config)
        node.enqueue(_request(0), "base")
        assert node.pending == 1
        completions = []
        for _ in range(200):
            completions = node.step()
            if completions:
                break
        assert len(completions) == 1
        done = completions[0]
        assert done.request.index == 0
        assert done.lane == "base"
        assert done.latency_s > 0
        assert done.latency_s == pytest.approx(
            done.finish_s - done.request.arrival_s
        )
        assert not done.missed
        assert node.pending == 0
        assert node.slo["base"].observed_total == 1

    def test_wait_estimate_grows_with_backlog(self, config):
        node = FleetNode(0, config)
        idle_wait = node.est_wait_s("base")
        for index in range(10):
            node.enqueue(_request(index, units=1.0), "base")
        assert node.est_wait_s("base") > idle_wait
        assert node.backlog_units("base") == pytest.approx(10.0)
        assert node.queue_len("base") == 10

    def test_hot_lane_nominal_rate_is_faster(self, config):
        node = FleetNode(0, config)
        assert node.nominal_rate("hot") > node.nominal_rate("base")

    def test_double_route_and_unknown_lane_rejected(self, config):
        node = FleetNode(0, config)
        node.enqueue(_request(0), "base")
        with pytest.raises(ConfigurationError):
            node.enqueue(_request(0), "hot")
        with pytest.raises(ConfigurationError):
            node.enqueue(_request(1), "lukewarm")

    def test_energy_accrues_over_time(self, config):
        node = FleetNode(0, config)
        for _ in range(10):
            node.step()
        assert node.energy_j("total") > 0
        assert node.average_power_w("total") > 0


class TestRouters:
    def test_registry_covers_the_three_policies(self):
        assert set(ROUTERS) == {
            "round-robin",
            "least-loaded",
            "deadline-risk",
        }
        with pytest.raises(ConfigurationError):
            make_router("random")

    def test_round_robin_cycles(self, config):
        nodes = [FleetNode(i, config) for i in range(3)]
        router = make_router("round-robin")
        picks = [
            router.route(_request(i), nodes, 0.0) for i in range(6)
        ]
        assert [p[0] for p in picks] == [0, 1, 2, 0, 1, 2]
        assert all(p[1] == "base" for p in picks)

    def test_least_loaded_avoids_the_busy_node(self, config):
        nodes = [FleetNode(i, config) for i in range(3)]
        FleetEngine(nodes)  # candidates are rows of one engine
        for index in range(20):
            nodes[0].enqueue(_request(index, units=1.0), "base")
        router = make_router("least-loaded")
        node_index, lane = router.route(_request(100), Candidates(nodes), 0.0)
        assert node_index != 0
        assert lane == "base"
        # Ties break to the lowest index — determinism, not luck.
        assert node_index == 1

    def test_deadline_risk_promotes_under_pressure(self, config):
        nodes = [FleetNode(i, config) for i in range(2)]
        FleetEngine(nodes)
        router = make_router("deadline-risk")
        # Relaxed deadline, empty queues: stay on the base lane.
        node_index, lane = router.route(
            _request(0, budget=10.0), Candidates(nodes), 0.0
        )
        assert lane == "base"
        # Same request with every base lane jammed: go hot.
        for node in nodes:
            for index in range(1, 30):
                node.enqueue(
                    _request(index * 10 + node.index, units=1.0), "base"
                )
        # Enqueues that bypass Candidates.enqueue start a new routing
        # phase: the candidate set is rebuilt, as the cluster does per tick.
        node_index, lane = router.route(
            _request(500, budget=0.5), Candidates(nodes), 0.0
        )
        assert lane == "hot"

    def test_deadline_risk_margin_validated(self):
        cls = ROUTERS["deadline-risk"]
        with pytest.raises(ConfigurationError):
            cls(margin=0.0)
        with pytest.raises(ConfigurationError):
            cls(margin=1.5)

    def test_lanes_constant_matches_node(self, config):
        node = FleetNode(0, config)
        assert tuple(node.models) == LANES
        assert tuple(node.targets) == LANES


class _FlatEngine:
    """The arrays :meth:`FleetEngine.est_waits` reads, hand-set so each
    row's wait is exact: its queued units over a unit velocity."""

    lane_names = LANES
    est_waits = FleetEngine.est_waits

    def __init__(self, waits):
        shape = (len(waits), len(LANES))
        queued = np.repeat(
            np.array(waits, dtype=float)[:, None], len(LANES), axis=1
        )
        self.serving = types.SimpleNamespace(
            queued=queued, active_sum=np.zeros(shape)
        )
        self.velocity = np.ones(shape)
        self.wait_floor = np.zeros(shape)


class _FlatNode:
    """A node with exact, hand-set routing signals for boundary tests."""

    class _Config:
        lane_threads = 1

    config = _Config()

    def __init__(self, engine, row):
        self.index = row
        self.engine = self._engine = engine
        self._row = row

    def nominal_rate(self, lane):
        return 1.0

    def est_wait_s(self, lane):
        return self._engine.serving.queued.item(self._row, 0)


def _flat_nodes(*waits):
    """One :class:`_FlatNode` per wait, all rows of one stub engine."""
    engine = _FlatEngine(waits)
    return [_FlatNode(engine, row) for row in range(len(waits))]


class TestRouterEdgeCases:
    """Satellite gates: empty candidate sets and exact tie/boundary
    behaviour — the determinism contract failover routing leans on."""

    @pytest.mark.parametrize(
        "name", ["round-robin", "least-loaded", "deadline-risk"]
    )
    def test_empty_candidate_set_raises(self, name):
        router = make_router(name)
        with pytest.raises(ConfigurationError):
            router.route(_request(0), [], 0.0)
        with pytest.raises(ConfigurationError):
            router.route(_request(0), Candidates([]), 0.0)

    def test_round_robin_survives_a_shrinking_node_list(self, config):
        # The supervisor filters the candidate list between ticks; a
        # stale counter must reduce against the *current* length, and
        # the full-list cycle must be unchanged by the detour.
        nodes = [FleetNode(i, config) for i in range(3)]
        router = make_router("round-robin")
        assert router.route(_request(0), nodes, 0.0)[0] == 0
        assert router.route(_request(1), nodes, 0.0)[0] == 1
        # Two nodes drop out: the counter folds into the shorter list.
        assert router.route(_request(2), nodes[:1], 0.0)[0] == 0
        assert router.route(_request(3), nodes, 0.0)[0] == 1

    def test_least_loaded_tie_breaks_to_lowest_index(self):
        # Equal estimated waits everywhere: position 0 must win — the
        # strict < in the argmin scan, not an accident of float noise.
        nodes = Candidates(_flat_nodes(0.25, 0.25, 0.25, 0.25))
        router = make_router("least-loaded")
        assert router.route(_request(0), nodes, 0.0) == (0, "base")

    def test_deadline_risk_boundary_is_inclusive(self):
        import math

        # margin * budget = 0.6 * 0.5 is exact in binary (0.5 only
        # shifts the exponent), so eta == threshold is reachable: an
        # estimate exactly *at* the margin stays on the base lane, one
        # ulp above promotes to hot.
        router = ROUTERS["deadline-risk"](margin=0.6)
        threshold = 0.6 * 0.5
        nodes = Candidates(_flat_nodes(0.0, 0.0))
        at_margin = _request(0, units=threshold, budget=0.5)
        assert router.route(at_margin, nodes, 0.0) == (0, "base")
        over = _request(1, units=math.nextafter(threshold, 1.0), budget=0.5)
        assert router.route(over, nodes, 0.0)[1] == "hot"


def _reference_argmin(nodes, lane):
    """The strict-< scan routers used before per-tick wait vectors:
    the smallest fresh ``est_wait_s``, ties to the lowest position."""
    best = 0
    best_wait = nodes[0].est_wait_s(lane)
    for position in range(1, len(nodes)):
        wait = nodes[position].est_wait_s(lane)
        if wait < best_wait:
            best = position
            best_wait = wait
    return best


class TestCandidates:
    """The per-tick wait vectors must equal a fresh scan at every step."""

    def test_is_a_sequence_of_nodes(self):
        nodes = _flat_nodes(0.0, 0.0, 0.0)
        candidates = Candidates(nodes)
        assert len(candidates) == 3
        assert candidates[2] is nodes[2]
        assert list(candidates) == nodes
        assert candidates
        assert not Candidates([])

    @pytest.mark.parametrize("seed", range(4))
    def test_argmin_and_refresh_match_a_fresh_scan(self, config, seed):
        rng = random.Random(seed)
        nodes = [FleetNode(i, config) for i in range(5)]
        engine = FleetEngine(nodes)
        request_index = 0
        ties = 0
        for _ in range(3):  # routing phases, with node steps between
            candidates = Candidates(nodes)
            for _ in range(20):
                lane = rng.choice(LANES)
                waits = [node.est_wait_s(lane) for node in nodes]
                ties += waits.count(min(waits)) > 1
                assert candidates.argmin(lane) == _reference_argmin(
                    nodes, lane
                )
                # Sizes from {0.5, 1.0} keep backlogs on exact binary
                # sums, so different nodes keep landing on equal waits.
                position = rng.randrange(len(nodes))
                request = _request(
                    request_index, units=rng.choice((0.5, 1.0))
                )
                request_index += 1
                assert candidates.enqueue(position, request, lane) is (
                    nodes[position]
                )
                for check_lane in LANES:
                    for i, node in enumerate(nodes):
                        assert candidates.wait_s(i, check_lane) == (
                            node.est_wait_s(check_lane)
                        )
            engine.step()
        assert ties > 0

    def test_wait_vectors_equal_scalar_waits_after_enqueues(self, config):
        nodes = [FleetNode(i, config) for i in range(4)]
        engine = FleetEngine(nodes)
        rng = random.Random(5)
        for index in range(60):
            lane = rng.choice(LANES)
            nodes[rng.randrange(4)].enqueue(
                _request(index, units=rng.uniform(0.01, 0.4)), lane
            )
            if index % 7 == 6:
                engine.step()
            candidates = Candidates(nodes)
            for lane in LANES:
                assert candidates.waits(lane) == [
                    node.est_wait_s(lane) for node in nodes
                ]

    def test_candidates_of_two_engines_are_refused(self, config):
        # Each standalone node steps in a one-row engine of its own: one
        # gather cannot read both.
        candidates = Candidates([FleetNode(i, config) for i in range(2)])
        with pytest.raises(SimulationError):
            candidates.waits("base")

    def test_wait_vectors_equal_scalar_waits_under_chaos(self, monkeypatch):
        # Every vector the cluster reads, over routable subsets of a
        # chaotic run and after reboots into old rows, equals a fresh
        # scalar scan — cached entries refreshed by enqueues included.
        seen = {"vectors": 0, "subsets": 0, "rebooted": 0}

        class Checked(Candidates):
            def waits(self, lane):
                waits = super().waits(lane)
                assert waits == [node.est_wait_s(lane) for node in self]
                seen["vectors"] += 1
                seen["subsets"] += len(self) < config.nodes
                seen["rebooted"] += any(node.epoch_s > 0 for node in self)
                return waits

        monkeypatch.setattr(cluster_module, "Candidates", Checked)
        config = FleetConfig(
            nodes=8,
            requests=600,
            seed=4,
            trace="burst",
            chaos=FleetFaultConfig(
                seed=4,
                node_hang_rate=0.02,
                node_slowdown_rate=0.02,
                schedule=crash_wave(8, 0.25, at_s=0.5),
            ),
            resilience=ResilienceConfig(
                attempt_timeout_s=1.0,
                hedge_fraction=0.6,
                brownout_queue_depth=2.0,
            ),
        )
        result = FleetCluster(config).run()
        assert result.resilience["restarts"] > 0
        assert seen["vectors"] > 100
        assert seen["subsets"] > 0
        assert seen["rebooted"] > 0

    def test_argmin_skip_leaves_one_position_out(self):
        nodes = _flat_nodes(0.3, 0.1, 0.2, 0.1, 0.4)
        candidates = Candidates(nodes)
        before = list(candidates.waits("base"))
        for skip in range(len(nodes)):
            alternates = [n for i, n in enumerate(nodes) if i != skip]
            pick = candidates.argmin("base", skip=skip)
            assert pick != skip
            assert candidates[pick] is alternates[
                _reference_argmin(alternates, "base")
            ]
        assert candidates.argmin("base") == 1
        assert candidates.waits("base") == before
        # A one-node set has no alternate to hedge to.
        single = Candidates(_flat_nodes(0.2))
        assert single.argmin("base", skip=0) is None
        assert single.waits("base") == [0.2]
