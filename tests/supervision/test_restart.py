"""Controller crash+restart: warm checkpoint restore vs cold start."""

import pytest

from repro.core.manager import HarsManager
from repro.experiments.runner import (
    RunConfig,
    RunShape,
    build_target,
    prepare,
    run,
)
from repro.experiments.serialize import checkpoint_payload
from repro.experiments.versions import attach_single_app_version
from repro.faults import FaultConfig, LifecycleEvent
from repro.guardrails import GuardrailConfig, GuardrailLayer
from repro.kernel.bus import ControllerRestored
from repro.mphars.manager import MpHarsManager
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.supervision import Checkpointer, CheckpointStore, Supervisor
from repro.workloads.parsec import make_benchmark

#: Consecutive in-window samples counting as reconverged.
STREAK = 3


def _reconvergence_s(outcome, app_name, t0, horizon=60.0):
    app = next(a for a in outcome.metrics.apps if a.app_name == app_name)
    streak = 0
    for point in outcome.trace.points(app_name):
        if not t0 < point.time_s <= t0 + horizon:
            continue
        if app.target_min <= point.rate <= app.target_max:
            streak += 1
            if streak == STREAK:
                return point.time_s - t0
        else:
            streak = 0
    return horizon


class TestWarmVsColdAcceptance:
    """The PR's acceptance scenario: a mid-run restart of MP-HARS.

    The shapes are chosen so the co-run is feasible but *not* trivially
    in-window (0.55 + 0.35 of each app's solo max): MP-HARS must build
    partitions and settle, so losing its knowledge is visible.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=400,
                     target_fraction=0.55, seed=1),
            RunShape(benchmark="bodytrack", n_units=400,
                     target_fraction=0.35, seed=2),
        ]
        faults = FaultConfig(seed=3, lifecycle_schedule=(
            LifecycleEvent("controller_restart", at_s=120.0),
        ))
        warm = run(
            "mp-hars-e", shapes, RunConfig(faults=faults, checkpoint=2.0)
        )
        cold = run("mp-hars-e", shapes, RunConfig(faults=faults))
        return warm, cold

    def test_checkpoints_were_written(self, runs):
        warm, _ = runs
        assert warm.checkpoint_store is not None
        assert warm.checkpoint_store.writes > 0
        assert "mp-hars" in warm.checkpoint_store.controller_ids

    def test_warm_restore_reconverges_within_one_period(self, runs):
        warm, _ = runs
        for app in warm.metrics.apps:
            period_s = 5 / app.target_avg
            reconv = _reconvergence_s(warm, app.app_name, 120.0)
            assert reconv <= period_s, (
                f"{app.app_name}: warm restore took {reconv:.2f}s to "
                f"re-enter its window (one adaptation period is "
                f"{period_s:.2f}s)"
            )

    def test_warm_never_slower_than_cold(self, runs):
        warm, cold = runs
        for app in warm.metrics.apps:
            warm_reconv = _reconvergence_s(warm, app.app_name, 120.0)
            cold_reconv = _reconvergence_s(cold, app.app_name, 120.0)
            assert warm_reconv <= cold_reconv


class TestRestoredEventAndFallback:
    def _adapted_sim(self, xu3):
        shape = RunShape(benchmark="swaptions", n_units=400, seed=1)
        target = build_target(xu3, shape)
        sim = Simulation(xu3, tick_s=0.01)
        model = make_benchmark("swaptions", 400, 8)
        model.reset(1)
        app = sim.add_app(SimApp("swaptions", model, target))
        controllers = attach_single_app_version(sim, app, "hars-e")
        checkpointer = Checkpointer(cadence_s=0.5)
        sim.add_controller(checkpointer)
        events = []
        sim.bus.subscribe(ControllerRestored, events.append)
        sim.run(until_s=30.0)
        manager = next(
            c for c in controllers if isinstance(c, HarsManager)
        )
        return sim, manager, checkpointer, events

    def test_warm_restore_publishes_checkpoint_age(self, xu3):
        sim, manager, checkpointer, events = self._adapted_sim(xu3)
        assert manager.checkpoint_store is checkpointer.store
        manager.simulate_restart(sim)
        restored = events[-1]
        assert restored.controller == manager.checkpoint_id
        assert restored.warm is True
        assert restored.checkpoint_time_s is not None
        assert restored.checkpoint_time_s <= sim.clock.now_s

    def test_malformed_checkpoint_falls_back_to_cold(self, xu3):
        sim, manager, checkpointer, events = self._adapted_sim(xu3)
        # A valid envelope whose body is garbage passes the store's
        # schema check but must fail the controller's restore — the
        # restart then completes cold instead of propagating.
        checkpointer.store.put(
            checkpoint_payload(manager.checkpoint_id, 29.0, {"junk": True})
        )
        manager.simulate_restart(sim)
        assert events[-1].warm is False

    def test_missing_store_means_cold(self, xu3):
        sim, manager, _, events = self._adapted_sim(xu3)
        manager.checkpoint_store = None
        manager.simulate_restart(sim)
        assert events[-1].warm is False
        assert events[-1].checkpoint_time_s is None


class _FixedStore:
    """A store stub handing back one payload for every controller id —
    lets a test feed a restart what no real store would accept."""

    def __init__(self, payload):
        self.payload = payload

    def get(self, controller_id):
        return self.payload


#: Supervision + guardrails + checkpointing: all four checkpointed
#: controllers are attached.
_PROTOCOL_CONFIG = RunConfig(
    supervision=True,
    guardrails=GuardrailConfig(power_cap_w=4.0, damper_window=8),
    checkpoint=1.0,
)


def _prepared(kind):
    if kind is MpHarsManager:
        shapes = [
            RunShape(benchmark="swaptions", n_units=60, n_threads=4, seed=3),
            RunShape(benchmark="bodytrack", n_units=60, n_threads=4, seed=4),
        ]
        return prepare("mp-hars-e", shapes, _PROTOCOL_CONFIG)
    shape = RunShape(benchmark="swaptions", n_units=80, seed=7)
    return prepare("hars-e", shape, _PROTOCOL_CONFIG)


@pytest.fixture(
    params=[HarsManager, MpHarsManager, GuardrailLayer, Supervisor],
    ids=lambda kind: kind.__name__,
)
def restartable(request):
    """A run stepped 5 s, its controller of the requested kind, and the
    ControllerRestored events it publishes from then on."""
    prepared = _prepared(request.param)
    sim = prepared.sim
    sim.run(until_s=5.0)
    [controller] = [
        c for c in sim.controllers if isinstance(c, request.param)
    ]
    events = []
    sim.bus.subscribe(ControllerRestored, events.append)
    return sim, controller, events


class TestRestartProtocol:
    """The one ``simulate_restart`` every checkpointed controller runs."""

    def test_no_store_restarts_cold(self, restartable):
        sim, controller, events = restartable
        controller.checkpoint_store = None
        controller.simulate_restart(sim)
        assert events == [
            ControllerRestored(
                controller=controller.checkpoint_id,
                time_s=sim.clock.now_s,
                warm=False,
                checkpoint_time_s=None,
            )
        ]

    def test_schema_rejected_payload_restarts_cold(self, restartable):
        sim, controller, events = restartable
        payload = controller.checkpoint(4.0)
        payload["schema"] = -1
        controller.checkpoint_store = _FixedStore(payload)
        controller.simulate_restart(sim)
        [event] = events
        assert event.warm is False
        assert event.checkpoint_time_s is None

    def test_valid_snapshot_restarts_warm(self, restartable):
        sim, controller, events = restartable
        store = CheckpointStore()
        store.put(controller.checkpoint(4.5))
        controller.checkpoint_store = store
        controller.simulate_restart(sim)
        assert events == [
            ControllerRestored(
                controller=controller.checkpoint_id,
                time_s=sim.clock.now_s,
                warm=True,
                checkpoint_time_s=4.5,
            )
        ]

    def test_restart_round_trips_the_snapshot(self, restartable):
        sim, controller, _ = restartable
        store = CheckpointStore()
        store.put(controller.checkpoint(4.5))
        controller.checkpoint_store = store
        controller.simulate_restart(sim)
        assert controller.checkpoint(4.5) == store.get(
            controller.checkpoint_id
        )
