"""Robustness and generality integration tests.

Beyond the paper's happy path: odd thread counts, tiny platforms,
external interference with the manager's DVFS settings, and single-core
corners.
"""

import pytest

from repro.core.calibration import calibrate
from repro.core.manager import HarsManager
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E, HARS_I
from repro.core.state import SystemState
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG
from repro.sim.controller import Controller
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.phases import ConstantProfile


def _app(n_threads=8, n_units=40, unit_work=6.0, target=(0.45, 0.5, 0.55)):
    model = DataParallelWorkload(
        WorkloadTraits(name="w", big_little_ratio=1.5),
        n_threads,
        ConstantProfile(unit_work),
        n_units,
    )
    return SimApp("w", model, PerformanceTarget(*target))


def _manage(sim, app, power_estimator, policy=HARS_E, **kwargs):
    manager = HarsManager(
        app.name, policy, PerformanceEstimator(), power_estimator, **kwargs
    )
    sim.add_controller(manager)
    return manager


class TestThreadCounts:
    @pytest.mark.parametrize("n_threads", [1, 3, 5, 13])
    def test_odd_thread_counts_complete(self, xu3, power_estimator, n_threads):
        sim = Simulation(xu3)
        app = sim.add_app(_app(n_threads=n_threads, n_units=25))
        _manage(sim, app, power_estimator)
        sim.run(until_s=600)
        assert app.is_done()
        assert len(app.log) == 25

    def test_single_thread_app_adapts(self, xu3, power_estimator):
        sim = Simulation(xu3)
        app = sim.add_app(
            _app(n_threads=1, n_units=30, unit_work=1.2, target=(0.4, 0.5, 0.6))
        )
        manager = _manage(sim, app, power_estimator)
        sim.run(until_s=600)
        assert app.is_done()
        assert manager.adaptations >= 1


class TestSmallPlatform:
    def test_hars_runs_on_2plus2(self, small_spec):
        power = calibrate(small_spec)
        sim = Simulation(small_spec)
        app = sim.add_app(_app(n_threads=4, n_units=30, unit_work=3.0))
        _manage(sim, app, power)
        sim.run(until_s=600)
        assert app.is_done()

    def test_state_space_is_reachable(self, small_spec):
        # The exhaustive box covers the whole 2+2 platform space.
        from repro.core.state import max_state, neighbourhood

        states = set(
            neighbourhood(small_spec, max_state(small_spec), 4, 4, 20)
        )
        assert len(states) == small_spec.state_space_size()


class TestExternalInterference:
    def test_manager_recovers_from_external_dvfs_writes(
        self, xu3, power_estimator
    ):
        """Another agent (e.g. a thermal governor) keeps dropping the big
        frequency; HARS notices the rate change and re-adapts."""

        class ThermalGovernor(Controller):
            def __init__(self):
                self.kicks = 0

            def on_tick(self, sim):
                # Every ~20 s, force the big cluster to 800 MHz.
                if int(sim.clock.now_s * 100) % 2000 == 0 and sim.clock.now_s > 1:
                    sim.machine.set_freq_mhz(BIG, 800)
                    self.kicks += 1

        sim = Simulation(xu3)
        app = sim.add_app(_app(n_units=60, target=(0.55, 0.6, 0.65)))
        governor = ThermalGovernor()
        sim.add_controller(governor)
        _manage(sim, app, power_estimator)
        sim.run(until_s=900)
        assert app.is_done()
        assert governor.kicks > 0
        # Despite the interference the app stays broadly on target.
        assert app.monitor.mean_normalized_performance() > 0.6

    def test_two_managers_for_two_apps_coexist(self, xu3, power_estimator):
        """Two independent single-app HARS instances (not MP-HARS) fight
        over the shared frequencies but neither crashes; this is the
        naive-model failure mode of Section 4.1.1 running safely."""
        sim = Simulation(xu3)
        a = sim.add_app(_app(n_units=25))
        b_model = DataParallelWorkload(
            WorkloadTraits(name="b", big_little_ratio=1.5),
            8,
            ConstantProfile(6.0),
            25,
        )
        b = sim.add_app(SimApp("b", b_model, PerformanceTarget(0.45, 0.5, 0.55)))
        _manage(sim, a, power_estimator)
        manager_b = HarsManager(
            "b", HARS_I, PerformanceEstimator(), power_estimator
        )
        sim.add_controller(manager_b)
        sim.run(until_s=900)
        assert a.is_done() and b.is_done()


class TestManagerCorners:
    def test_initial_state_single_little_core(self, xu3, power_estimator):
        sim = Simulation(xu3)
        app = sim.add_app(_app(n_units=20, target=(0.05, 0.1, 0.15)))
        manager = _manage(
            sim,
            app,
            power_estimator,
            initial_state=SystemState(0, 1, 800, 800),
        )
        sim.run(until_s=2400)
        assert app.is_done()

    def test_unreachable_target_still_terminates(self, xu3, power_estimator):
        sim = Simulation(xu3)
        # Target far above anything the platform can deliver.
        app = sim.add_app(_app(n_units=30, target=(50.0, 55.0, 60.0)))
        manager = _manage(sim, app, power_estimator)
        sim.run(until_s=600)
        assert app.is_done()
        # The search settles on a state whose *estimated* capacity
        # matches the fastest state's (estimated rates tie when the
        # little cluster binds the barrier; ties break toward the
        # cheaper state).
        from repro.core.state import max_state

        estimator = manager.perf_estimator
        best_cap = estimator.estimate(max_state(xu3), app.n_threads).capacity
        final_cap = estimator.estimate(manager.state, app.n_threads).capacity
        assert final_cap == pytest.approx(best_cap, rel=1e-6)
