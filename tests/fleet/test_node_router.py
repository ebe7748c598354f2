"""FleetNode completion mapping, router policy and candidate-set tests."""

import dataclasses
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
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
        [("tick_s", 0.05), ("rate_span_s", 1.0), ("percentile", 99.0)],
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


class _FlatNode:
    """A node with exact, hand-set routing signals for boundary tests."""

    class _Config:
        lane_threads = 1

    config = _Config()

    def __init__(self, index, wait_s=0.0):
        self.index = index
        self._wait_s = wait_s

    def nominal_rate(self, lane):
        return 1.0

    def est_wait_s(self, lane):
        return self._wait_s


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
        nodes = Candidates([_FlatNode(i, wait_s=0.25) for i in range(4)])
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
        nodes = Candidates([_FlatNode(0), _FlatNode(1)])
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
        nodes = [_FlatNode(i) for i in range(3)]
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
            for node in nodes:
                node.step()
        assert ties > 0

    def test_argmin_skip_leaves_one_position_out(self):
        nodes = [
            _FlatNode(i, wait_s=w)
            for i, w in enumerate((0.3, 0.1, 0.2, 0.1, 0.4))
        ]
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
        single = Candidates([_FlatNode(0, wait_s=0.2)])
        assert single.argmin("base", skip=0) is None
        assert single.waits("base") == [0.2]
