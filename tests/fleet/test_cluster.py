"""Fleet cluster tests: determinism, accounting, telemetry.

The load-bearing property is bit-identity: the determinism test runs
the same seeded fleet twice and compares the full summary fingerprints
with ``==`` — no tolerances.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.cluster import FleetCluster, run_fleet
from repro.fleet.config import FleetConfig
from repro.telemetry.registry import flatten_snapshot

#: Small but non-trivial fleet the module's tests share.
_SMALL = FleetConfig(nodes=6, requests=400)


@pytest.fixture(scope="module")
def small_result():
    return run_fleet("deadline-risk", _SMALL)


class TestAccounting:
    def test_trace_fully_served(self, small_result):
        assert small_result.completed == _SMALL.requests
        assert small_result.unserved == 0
        assert small_result.requests == _SMALL.requests

    def test_percentiles_ordered(self, small_result):
        assert (
            0.0
            < small_result.p50_s
            <= small_result.p95_s
            <= small_result.p99_s
        )

    def test_energy_and_power_positive(self, small_result):
        assert small_result.energy_j > 0
        assert small_result.avg_power_w > 0
        assert small_result.duration_s > 0

    def test_lane_split_covers_all_completions(self, small_result):
        assert (
            sum(small_result.lane_completed.values())
            == small_result.completed
        )

    def test_single_use_guard(self):
        cluster = FleetCluster(_SMALL, router="round-robin")
        cluster.run()
        with pytest.raises(SimulationError):
            cluster.run()

    def test_run_fleet_rejects_wrong_config_type(self):
        with pytest.raises(ConfigurationError):
            run_fleet("round-robin", config={"nodes": 3})


class TestTelemetry:
    def test_fleet_gauges_exported(self, small_result):
        flat = flatten_snapshot(small_result.registry.snapshot())
        names = {name for name, _ in flat}
        assert "fleet_latency_seconds" in names
        assert "fleet_deadline_miss_ratio" in names
        assert "fleet_energy_joules" in names
        assert "fleet_power_watts" in names
        assert "fleet_node_energy_joules" in names
        assert "fleet_requests_routed_total" in names
        assert "fleet_requests_completed_total" in names

    def test_latency_gauges_match_result(self, small_result):
        flat = flatten_snapshot(small_result.registry.snapshot())
        assert flat[
            ("fleet_latency_seconds", (("quantile", "0.99"),))
        ] == pytest.approx(small_result.p99_s)

    def test_per_node_histogram_covers_every_node(self, small_result):
        flat = flatten_snapshot(small_result.registry.snapshot())
        nodes = {
            dict(labels)["node"]
            for name, labels in flat
            if name.startswith("fleet_node_latency_seconds")
            and "node" in dict(labels)
        }
        assert len(nodes) == _SMALL.nodes

    def test_energy_rails_sum_consistently(self, small_result):
        flat = flatten_snapshot(small_result.registry.snapshot())
        big = flat[("fleet_energy_joules", (("rail", "big"),))]
        little = flat[("fleet_energy_joules", (("rail", "little"),))]
        board = flat[("fleet_energy_joules", (("rail", "board"),))]
        total = flat[("fleet_energy_joules", (("rail", "total"),))]
        assert total == pytest.approx(big + little + board)
        assert total == pytest.approx(small_result.energy_j)


class TestShardDeterminism:
    """The same seeded fleet gives the same fingerprint, bit for bit."""

    def test_repeat_run_bit_identical(self):
        """Same config twice — the cluster itself is deterministic."""
        config = FleetConfig(nodes=4, requests=200)
        assert (
            run_fleet("least-loaded", config).summary()
            == run_fleet("least-loaded", config).summary()
        )
