"""Manager-level freeze bookkeeping: set, drain, unfreeze (satellite of
the supervision PR — eviction and checkpoint restore both walk these
paths with arbitrary in-flight freeze state)."""

import pytest

from repro.experiments.runner import RunShape, build_target
from repro.experiments.versions import attach_multi_app_version
from repro.mphars.manager import DEFAULT_FREEZE_BEATS, MpHarsManager
from repro.platform.cluster import BIG, LITTLE
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.parsec import make_benchmark, resolve_name


@pytest.fixture
def mp_manager(xu3):
    shapes = [
        RunShape(benchmark="swaptions", n_units=400,
                 target_fraction=0.5, seed=1),
        RunShape(benchmark="bodytrack", n_units=400,
                 target_fraction=0.5, seed=2),
    ]
    sim = Simulation(xu3, tick_s=0.01)
    apps = []
    for position, shape in enumerate(shapes):
        target = build_target(xu3, shape)
        model = make_benchmark(shape.benchmark, shape.n_units, 8)
        model.reset(shape.seed)
        name = f"{resolve_name(shape.benchmark)}-{position}"
        apps.append(sim.add_app(SimApp(name, model, target)))
    controllers = attach_multi_app_version(sim, "mp-hars-e")
    sim.run(until_s=2.0)
    manager = next(c for c in controllers if isinstance(c, MpHarsManager))
    return apps, manager


def _big_user(manager):
    """Force one registered app to count as a big-cluster user."""
    data = next(iter(manager._apps.values()))
    data.use_b_core[0] = True
    return data


class TestFreezeDrain:
    def test_decrease_freezes_every_cluster_user(self, mp_manager):
        _, manager = mp_manager
        data = _big_user(manager)
        manager._set_freezing_counts(BIG)
        assert data.freezing_cnt_b == DEFAULT_FREEZE_BEATS
        assert manager._clusters[BIG].frozen

    def test_drained_counts_auto_unfreeze(self, mp_manager):
        _, manager = mp_manager
        data = _big_user(manager)
        manager._set_freezing_counts(BIG)
        for _ in range(DEFAULT_FREEZE_BEATS):
            assert manager._clusters[BIG].frozen
            for entry in manager._apps.values():
                entry.tick_freezing_counts()
            manager._refresh_frozen_flags()
        assert data.freezing_cnt_b == 0
        assert not manager._clusters[BIG].frozen

    def test_explicit_unfreeze_clears_counts_immediately(self, mp_manager):
        _, manager = mp_manager
        data = _big_user(manager)
        manager._set_freezing_counts(BIG)
        assert data.freezing_cnt_b > 0
        manager._unfreeze(BIG)
        assert data.freezing_cnt_b == 0
        assert not manager._clusters[BIG].frozen
        # Re-freezing after an unfreeze starts a fresh full countdown.
        manager._set_freezing_counts(BIG)
        assert data.freezing_cnt_b == DEFAULT_FREEZE_BEATS

    def test_clusters_freeze_independently(self, mp_manager):
        _, manager = mp_manager
        _big_user(manager)
        manager._set_freezing_counts(BIG)
        assert manager._clusters[BIG].frozen
        manager._refresh_frozen_flags()
        assert not manager._clusters[LITTLE].frozen
