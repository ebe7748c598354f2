"""Graceful degradation end-to-end: faulted runs complete and account.

The fault layer's contract has three halves:

* **identity** — zero rates mean the fault layer vanishes: a run with
  ``FaultConfig.disabled()`` is bit-identical to one with no config;
* **completion** — the documented default fault mix never crashes a
  full HARS-E run, and every injection/recovery is announced on the bus
  in numbers that match the injector's own counters;
* **degradation policies** — delayed heartbeats arrive late but intact,
  failed DVFS writes leave the old frequency in place and back off, and
  the MAPE loop holds its last good state on degraded observations.
"""

import dataclasses

import pytest

from repro.experiments.runner import RunConfig, RunShape, run
from repro.faults import FaultConfig
from repro.heartbeats.targets import PerformanceTarget
from repro.kernel.bus import EventBus, FaultInjected, FaultRecovered, HeartbeatEmitted
from repro.platform.cluster import BIG
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.phases import ConstantProfile

_UNITS = 60


def _shape(seed=0):
    return RunShape("swaptions", n_units=_UNITS, seed=seed)


def _snapshot(outcome):
    return (
        dataclasses.asdict(outcome.metrics),
        tuple(
            (name, outcome.trace.points(name))
            for name in sorted(outcome.trace.app_names)
        ),
    )


def _app(n_threads=4, n_units=30, unit_work=4.0):
    model = DataParallelWorkload(
        WorkloadTraits(name="w", big_little_ratio=1.5),
        n_threads,
        ConstantProfile(unit_work),
        n_units,
    )
    return SimApp("w", model, PerformanceTarget(0.45, 0.5, 0.55))


class TestZeroRateIdentity:
    def test_disabled_config_is_bit_identical(self, xu3):
        clean = run("hars-e", _shape(), RunConfig(spec=xu3))
        disabled = run(
            "hars-e",
            _shape(),
            RunConfig(spec=xu3, faults=FaultConfig.disabled()),
        )
        assert disabled.fault_injector is None
        assert _snapshot(disabled) == _snapshot(clean)

    def test_scaled_to_zero_is_bit_identical(self, xu3):
        clean = run("hars-e", _shape(), RunConfig(spec=xu3))
        zeroed = run(
            "hars-e",
            _shape(),
            RunConfig(spec=xu3, faults=FaultConfig.defaults().scaled(0.0)),
        )
        assert zeroed.fault_injector is None
        assert _snapshot(zeroed) == _snapshot(clean)


class TestDefaultFaultMix:
    @pytest.fixture(scope="class")
    def faulted(self, xu3):
        """One HARS-E run under the default fault mix, bus events captured."""
        events = {"injected": [], "recovered": []}
        from repro.experiments.versions import attach_single_app_version

        sim = Simulation(xu3, faults=FaultConfig.defaults())
        sim.bus.subscribe(FaultInjected, events["injected"].append)
        sim.bus.subscribe(FaultRecovered, events["recovered"].append)
        app = sim.add_app(_app(n_units=40))
        attach_single_app_version(sim, app, "hars-e")
        sim.run(until_s=900)
        return sim, app, events

    def test_run_completes_without_unhandled_exception(self, faulted):
        sim, app, _ = faulted
        assert app.is_done()
        assert len(app.log) == 40

    def test_faults_were_actually_injected(self, faulted):
        sim, _, _ = faulted
        assert sim.fault_injector.total_injected > 0

    def test_bus_trace_matches_injector_counters(self, faulted):
        sim, _, events = faulted
        inj = sim.fault_injector
        assert len(events["injected"]) == inj.total_injected
        assert len(events["recovered"]) == inj.total_recovered
        by_kind = {}
        for event in events["injected"]:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind == inj.injected

    def test_runner_surfaces_the_injector(self, xu3):
        outcome = run(
            "hars-e",
            _shape(),
            RunConfig(spec=xu3, faults=FaultConfig.defaults()),
        )
        assert outcome.fault_injector is not None
        assert outcome.fault_injector.total_injected > 0
        app = outcome.metrics.apps[0]
        assert app.heartbeats == _UNITS
        assert 0.0 < app.mean_normalized_perf <= 1.0


class TestExtremeRates:
    def test_certain_dvfs_failure_does_not_crash(self, xu3):
        faults = FaultConfig(dvfs_failure_rate=1.0)
        outcome = run("hars-e", _shape(), RunConfig(spec=xu3, faults=faults))
        assert outcome.metrics.apps[0].heartbeats == _UNITS
        inj = outcome.fault_injector
        assert inj.injected.get("dvfs", 0) > 0
        assert inj.recovered.get("dvfs", 0) == 0  # nothing ever succeeds

    def test_certain_dropout_degrades_to_integrated_power(self, xu3):
        faults = FaultConfig(sensor_dropout_rate=1.0)
        outcome = run("hars-e", _shape(), RunConfig(spec=xu3, faults=faults))
        assert outcome.metrics.apps[0].heartbeats == _UNITS
        assert outcome.metrics.avg_power_w > 0  # integrated channel intact


class TestDelayedHeartbeats:
    def test_stalled_beats_arrive_later_in_order(self, xu3):
        faults = FaultConfig(
            heartbeat_stall_rate=1.0, heartbeat_stall_ticks=5
        )
        sim = Simulation(xu3, faults=faults)
        seen = []
        sim.bus.subscribe(
            HeartbeatEmitted, lambda e: seen.append(e.heartbeat.index)
        )
        app = sim.add_app(_app(n_units=10))
        sim.run(until_s=600)
        # Ground truth: every beat is in the log at its true time.
        assert len(app.log) == 10
        # Observation: delivered beats arrive in emission order, and
        # stalls near the end may leave beats undelivered at exit.
        assert seen == sorted(seen)
        assert len(seen) <= 10
        inj = sim.fault_injector
        assert inj.injected["heartbeat-stall"] == 10
        assert inj.recovered.get("heartbeat-stall", 0) == len(seen)


class TestActuatorRetry:
    def test_failed_dvfs_write_holds_old_frequency(self, xu3, power_estimator):
        sim = Simulation(xu3, faults=FaultConfig(dvfs_failure_rate=1.0))
        before = sim.machine.freq_mhz(BIG)
        assert sim.actuator.set_frequency(BIG, 1000) is False
        assert sim.machine.freq_mhz(BIG) == before
        assert sim.actuator.failed_actuations == 1
        # All four attempts announced.
        assert sim.fault_injector.injected["dvfs"] == 1 + sim.actuator.max_retries

    def test_backoff_skips_writes_until_window_passes(self, xu3):
        sim = Simulation(xu3, faults=FaultConfig(dvfs_failure_rate=1.0))
        sim.actuator.set_frequency(BIG, 1000)
        skipped_before = sim.actuator.skipped_actuations
        assert sim.actuator.set_frequency(BIG, 1000) is False
        assert sim.actuator.skipped_actuations == skipped_before + 1
        # No new rolls while backing off.
        assert sim.fault_injector.injected["dvfs"] == 1 + sim.actuator.max_retries

    def test_invalid_frequency_still_raises_under_faults(self, xu3):
        from repro.errors import FrequencyError

        # Every write is dropped, yet an off-table frequency (above the
        # table, or between two of its points) raises rather than
        # reading as a failed actuation.
        sim = Simulation(xu3, faults=FaultConfig(dvfs_failure_rate=1.0))
        for freq_mhz in (12345, 1050):
            with pytest.raises(FrequencyError):
                sim.actuator.set_frequency(BIG, freq_mhz)


class TestHoldLastGoodState:
    def test_nonpositive_rate_holds(self, xu3, power_estimator):
        from repro.core.manager import HarsManager
        from repro.core.perf_estimator import PerformanceEstimator
        from repro.core.policy import HARS_E

        sim = Simulation(xu3)
        app = sim.add_app(_app(n_units=30))
        manager = HarsManager(
            app.name, HARS_E, PerformanceEstimator(), power_estimator
        )
        sim.add_controller(manager)
        sim.run(until_s=600)
        assert app.is_done()
        # A healthy run never holds.
        assert manager.held_cycles == 0

    def test_stale_observations_hold(self, xu3, power_estimator):
        from repro.core.manager import HarsManager
        from repro.core.perf_estimator import PerformanceEstimator
        from repro.core.policy import HARS_E

        # Long stalls + a tight staleness bound: some adaptation cycles
        # must fire on observations older than the bound and hold.
        sim = Simulation(
            xu3,
            faults=FaultConfig(
                heartbeat_stall_rate=0.5, heartbeat_stall_ticks=80, seed=5
            ),
        )
        app = sim.add_app(_app(n_units=40))
        manager = HarsManager(
            app.name,
            HARS_E,
            PerformanceEstimator(),
            power_estimator,
            stale_after_s=0.3,
        )
        sim.add_controller(manager)
        sim.run(until_s=900)
        assert app.is_done()
        assert manager.held_cycles > 0
