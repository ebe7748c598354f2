"""Behavioural tests for the GTS scheduler model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG, LITTLE
from repro.sched.gts import GtsScheduler
from repro.sched.load_tracking import (
    preferred_cluster,
    prefers_big,
    validate_thresholds,
)
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.phases import ConstantProfile


def _hungry_app(name="hungry", n_threads=8):
    model = DataParallelWorkload(
        WorkloadTraits(name=name), n_threads, ConstantProfile(50.0), 50
    )
    return SimApp(name, model, PerformanceTarget(1.0, 1.0, 1.0))


class TestLoadTracking:
    def test_preferred_cluster_thresholds(self):
        assert preferred_cluster(0.9, LITTLE, 0.8, 0.25) == BIG
        assert preferred_cluster(0.1, BIG, 0.8, 0.25) == LITTLE
        # Hysteresis zone: stay put.
        assert preferred_cluster(0.5, BIG, 0.8, 0.25) == BIG
        assert preferred_cluster(0.5, LITTLE, 0.8, 0.25) == LITTLE

    def test_prefers_big_takes_arrays_elementwise(self):
        load = [0.9, 0.9, 0.1, 0.1, 0.5, 0.5, 0.8, 0.25]
        on_big = [False, True, False, True, False, True, False, True]
        got = prefers_big(np.array(load), np.array(on_big), 0.8, 0.25)
        assert got.tolist() == [
            prefers_big(x, b, 0.8, 0.25) for x, b in zip(load, on_big)
        ]
        assert got.tolist() == [True, True, False, False, False, True, True, False]

    def test_threshold_validation(self):
        validate_thresholds(0.8, 0.25)
        with pytest.raises(ConfigurationError):
            validate_thresholds(0.25, 0.8)
        with pytest.raises(ConfigurationError):
            validate_thresholds(1.5, 0.2)

    def test_scheduler_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            GtsScheduler(up_threshold=0.2, down_threshold=0.8)


class TestGtsPathology:
    def test_hungry_threads_crowd_the_big_cluster(self, xu3):
        """The baseline pathology from Section 4.1.1: CPU-intensive
        threads all migrate to the big cluster and time-share it while
        the little cores idle."""
        sim = Simulation(xu3)
        app = sim.add_app(_hungry_app())
        for _ in range(300):  # 3 s
            sim.step()
        cores = app.cores_in_use()
        assert set(cores) == {4, 5, 6, 7}

    def test_light_threads_sink_to_little(self, xu3):
        sim = Simulation(xu3)
        app = SimApp(
            "light",
            MicrobenchWorkload(n_threads=2, duty=0.05),
            PerformanceTarget(1.0, 1.0, 1.0),
        )
        sim.add_app(app)
        for _ in range(500):
            sim.step()
        # Duty 5% keeps utilization far below the down threshold.
        assert all(t.load < 0.25 for t in app.threads)
        assert set(app.cores_in_use()) <= {0, 1, 2, 3}

    def test_affinity_overrides_migration(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_hungry_app(n_threads=2))
        for thread in app.threads:
            thread.set_affinity(frozenset({0, 1}))
        for _ in range(200):
            sim.step()
        assert set(app.cores_in_use()) <= {0, 1}

    def test_threads_spread_within_cluster(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_hungry_app(n_threads=4))
        for _ in range(200):
            sim.step()
        # Four hungry threads on four big cores: one each.
        assert app.cores_in_use() == (4, 5, 6, 7)

    def test_cpuset_respected(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_hungry_app(n_threads=4))
        app.set_cpuset(frozenset({4, 5}))
        for _ in range(200):
            sim.step()
        assert set(app.cores_in_use()) <= {4, 5}

    def test_placement_is_sticky(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_hungry_app(n_threads=4))
        for _ in range(100):
            sim.step()
        before = {t.local_index: t.current_core for t in app.threads}
        for _ in range(50):
            sim.step()
        after = {t.local_index: t.current_core for t in app.threads}
        assert before == after
