"""Behavioural tests for the GTS scheduler model."""

import random

import numpy as np
import pytest

from repro.heartbeats.targets import PerformanceTarget
from repro.sched.gts import (
    GtsScheduler,
    candidate_split,
    least_loaded_rows,
    on_big_table,
)
from repro.sched.load_tracking import prefers_big
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.sim.thread import SimThread
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
        assert prefers_big(0.9, False, 0.8, 0.25)
        assert not prefers_big(0.1, True, 0.8, 0.25)
        # Hysteresis zone: stay put.
        assert prefers_big(0.5, True, 0.8, 0.25)
        assert not prefers_big(0.5, False, 0.8, 0.25)

    def test_prefers_big_takes_arrays_elementwise(self):
        load = [0.9, 0.9, 0.1, 0.1, 0.5, 0.5, 0.8, 0.25]
        on_big = [False, True, False, True, False, True, False, True]
        got = prefers_big(np.array(load), np.array(on_big), 0.8, 0.25)
        assert got.tolist() == [
            prefers_big(x, b, 0.8, 0.25) for x, b in zip(load, on_big)
        ]
        assert got.tolist() == [True, True, False, False, False, True, True, False]

    def test_no_current_core_counts_as_on_big(self, xu3):
        table = on_big_table(xu3)
        assert table == (False,) * 4 + (True,) * 4 + (True,)
        # The engine's "no current core" is -1: the same last entry.
        assert np.array(table)[np.array([-1, 0, 4])].tolist() == [
            True,
            False,
            True,
        ]

    @pytest.mark.parametrize(
        "allowed, big, little",
        [
            ({0, 1, 2, 3, 4, 5, 6, 7}, [4, 5, 6, 7], [0, 1, 2, 3]),
            ({6, 0, 5}, [5, 6], [0]),
            ({7, 4}, [4, 7], [4, 7]),
            ({2}, [2], [2]),
            (set(), [], []),
        ],
    )
    def test_candidate_split_same_for_floats_and_arrays(
        self, xu3, allowed, big, little
    ):
        table = on_big_table(xu3)
        split = candidate_split(frozenset(allowed), table)
        assert split == (big, little)
        assert candidate_split(frozenset(allowed), np.array(table)) == split
        # One cluster allowed: one list, so the load chooses nothing.
        assert (split[0] is split[1]) == (big == little)

    def test_scan_equals_the_engine_pick(self):
        """``_pick_partitioned``'s scan and the engine's
        ``least_loaded_rows`` pick the same core on the same run queue."""
        scheduler = GtsScheduler()
        bonus = scheduler.STICKINESS
        x = 0.7
        cases = [
            ([0.0] * 8, [4, 5, 6, 7], None),  # exact tie: lowest core
            ([0.0] * 8, [4, 5, 6, 7], 6),  # the bonus breaks the tie
            # The current core's bonus ties it exactly with a lighter one.
            ([0.3] * 4 + [x, x - bonus, 0.9, 0.9], [4, 5, 6, 7], 4),
            ([0.3] * 4 + [0.9, x, x - bonus, 0.9], [4, 5, 6, 7], 5),
            ([0.0] * 4 + [0.5, 0.2, 0.2, 0.9], [4, 5, 6, 7], 1),  # outside
            ([0.2, 0.1, 0.1, 0.4, 0.0, 0.0, 0.0, 0.0], [0, 1, 2, 3], None),
        ]
        rng = random.Random(7)
        for _ in range(300):
            loads = [rng.choice((0.0, 0.05, 0.1, 0.15, 0.2)) for _ in range(8)]
            candidates = sorted(rng.sample(range(8), rng.randint(1, 8)))
            cases.append((loads, candidates, rng.choice([None, *range(8)])))
        for loads, candidates, current in cases:
            thread = SimThread("app", 0, current_core=current)
            want = scheduler._pick_partitioned(
                thread, candidates, candidates, dict(enumerate(loads))
            )
            on_current = np.arange(8) == (-1 if current is None else current)
            got = least_loaded_rows(
                np.array([loads]),
                np.isin(np.arange(8), candidates)[None],
                (on_current * bonus)[None],
            )
            assert got.tolist() == [want]


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
