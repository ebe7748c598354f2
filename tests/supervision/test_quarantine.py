"""Quarantine behaviour: hang/crash escalation, recovery, reclamation."""

import pytest

from repro.experiments.runner import RunConfig, RunShape, build_target, run
from repro.faults import FaultConfig, LifecycleEvent
from repro.kernel.bus import AppEvicted, AppQuarantined, AppSuspected, TickStart
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.supervision import AppHealth, FailureKind, Supervisor, SupervisorConfig
from repro.experiments.versions import attach_single_app_version
from repro.workloads.parsec import make_benchmark


def _watched_sim(xu3, grace_factor=2.0):
    """A baseline-run swaptions sim with a supervisor attached."""
    shape = RunShape(benchmark="swaptions", n_units=400, seed=0)
    target = build_target(xu3, shape)
    sim = Simulation(xu3, tick_s=0.01)
    model = make_benchmark("swaptions", 400, 8)
    model.reset(0)
    app = sim.add_app(SimApp("swaptions", model, target))
    attach_single_app_version(sim, app, "baseline")
    supervisor = Supervisor(SupervisorConfig(grace_factor=grace_factor))
    sim.add_controller(supervisor)
    events = []
    for kind in (AppSuspected, AppQuarantined, AppEvicted):
        sim.bus.subscribe(kind, events.append)
    sim.run(until_s=10.0)
    assert app.log.last is not None, "expected heartbeats after 10 s"
    return sim, app, supervisor, events


class TestDeadlineEscalation:
    def test_registry_registration_on_start(self, xu3):
        _, app, supervisor, _ = _watched_sim(xu3)
        assert supervisor.ledger.status_of(app.name) is AppHealth.HEALTHY

    def test_one_level_per_tick_and_eviction(self, xu3):
        sim, app, supervisor, events = _watched_sim(xu3)
        deadline = supervisor.config.deadline_s(app.target.min_rate)
        # A silent gap way past every threshold must still walk the
        # machine one level per tick, publishing each stage.
        silent = app.log.last.time_s + 10 * deadline
        supervisor._on_tick(sim, TickStart(time_s=silent))
        assert supervisor.ledger.status_of(app.name) is AppHealth.SUSPECT
        supervisor._on_tick(sim, TickStart(time_s=silent + 0.01))
        assert supervisor.ledger.status_of(app.name) is AppHealth.QUARANTINED
        supervisor._on_tick(sim, TickStart(time_s=silent + 0.02))
        assert supervisor.ledger.status_of(app.name) is AppHealth.EVICTED
        assert [type(e).__name__ for e in events] == [
            "AppSuspected",
            "AppQuarantined",
            "AppEvicted",
        ]
        assert supervisor.evictions == 1
        record = supervisor.ledger.record(app.name)
        assert record.failure is FailureKind.HUNG
        # Eviction reclaims everything: the app is halted and unpinned.
        assert app.halted
        assert app.cpuset is None
        assert all(thread.affinity is None for thread in app.threads)

    def test_heartbeat_recovers_a_suspect(self, xu3):
        sim, app, supervisor, events = _watched_sim(xu3)
        deadline = supervisor.config.deadline_s(app.target.min_rate)
        supervisor._on_tick(
            sim, TickStart(time_s=app.log.last.time_s + 2 * deadline)
        )
        assert supervisor.ledger.status_of(app.name) is AppHealth.SUSPECT
        supervisor._on_beat(sim, app, app.log.last)
        record = supervisor.ledger.record(app.name)
        assert record.status is AppHealth.HEALTHY
        assert record.recoveries == 1
        assert record.failure is None
        assert not app.halted
        # The event stream shows the suspicion, not an eviction.
        assert [type(e).__name__ for e in events] == ["AppSuspected"]

    def test_quiet_run_stays_healthy(self, xu3):
        sim, app, supervisor, events = _watched_sim(xu3)
        supervisor._on_tick(sim, TickStart(time_s=sim.clock.now_s))
        assert supervisor.ledger.status_of(app.name) is AppHealth.HEALTHY
        assert events == []
        assert supervisor.evictions == 0


class TestLifecycleIntegration:
    @pytest.fixture(scope="class")
    def hang_outcome(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=120,
                     target_fraction=0.75, seed=1),
            RunShape(benchmark="bodytrack", n_units=120,
                     target_fraction=0.75, seed=2),
        ]
        faults = FaultConfig(seed=3, lifecycle_schedule=(
            LifecycleEvent("app_hang", at_s=10.0, target="swaptions-0"),
        ))
        return run(
            "mp-hars-e",
            shapes,
            RunConfig(
                faults=faults,
                supervision=SupervisorConfig(grace_factor=3.0),
            ),
        )

    def test_hung_app_walks_the_state_machine(self, hang_outcome):
        record = hang_outcome.supervisor.ledger.record("swaptions-0")
        assert record.status is AppHealth.EVICTED
        assert record.failure is FailureKind.HUNG
        assert 10.0 < record.suspected_at < record.quarantined_at
        assert record.quarantined_at < record.evicted_at

    def test_survivor_reclaims_cores_within_two_periods(self, hang_outcome):
        ledger = hang_outcome.supervisor.ledger
        evicted_at = ledger.record("swaptions-0").evicted_at
        survivor = next(
            a for a in hang_outcome.metrics.apps
            if a.app_name == "bodytrack-1"
        )
        period_s = 5 / survivor.target_avg
        reclaim_by = evicted_at + 2 * period_s
        owned = [
            p.time_s
            for p in hang_outcome.trace.points("bodytrack-1")
            if evicted_at <= p.time_s <= reclaim_by
            and p.big_cores + p.little_cores > 0
        ]
        assert owned, (
            "survivor never picked up the reclaimed cores within two "
            "adaptation periods of the eviction"
        )
        assert ledger.status_of("bodytrack-1") is AppHealth.DONE

    def test_crash_is_classified_and_evicted_immediately(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=120,
                     target_fraction=0.5, seed=1),
            RunShape(benchmark="bodytrack", n_units=120,
                     target_fraction=0.5, seed=2),
        ]
        faults = FaultConfig(seed=3, lifecycle_schedule=(
            LifecycleEvent("app_crash", at_s=10.0, target="bodytrack-1"),
        ))
        outcome = run(
            "mp-hars-e", shapes, RunConfig(faults=faults, supervision=True)
        )
        record = outcome.supervisor.ledger.record("bodytrack-1")
        assert record.status is AppHealth.EVICTED
        assert record.failure is FailureKind.CRASHED
        # A crash is unambiguous: no grace period, the whole escalation
        # fires at the moment the exit is observed.
        assert record.suspected_at == record.quarantined_at
        assert record.quarantined_at == record.evicted_at
        assert outcome.supervisor.ledger.status_of(
            "swaptions-0"
        ) is AppHealth.DONE
