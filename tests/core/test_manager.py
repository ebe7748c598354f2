"""Behavioural tests for the HARS runtime manager (Algorithm 1)."""

import pytest

from repro.core.manager import HarsManager
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E, HARS_I
from repro.core.state import SystemState, max_state
from repro.errors import ConfigurationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG, LITTLE
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.phases import ConstantProfile


def _setup(xu3, power_estimator, policy=HARS_E, n_units=60, target=(0.45, 0.5, 0.55),
           adapt_every=5, unit_work=9.6):
    """A workload running at ~1.08 HPS at HARS's initial max state (the
    Table 3.1 split at max frequencies closes the 8-thread barrier at
    ~1.08 units/s); the default target window sits at half that."""
    sim = Simulation(xu3)
    model = DataParallelWorkload(
        WorkloadTraits(name="w", big_little_ratio=1.5),
        8,
        ConstantProfile(unit_work),
        n_units,
    )
    app = sim.add_app(SimApp("w", model, PerformanceTarget(*target)))
    manager = HarsManager(
        app_name="w",
        policy=policy,
        perf_estimator=PerformanceEstimator(),
        power_estimator=power_estimator,
        adapt_every=adapt_every,
    )
    sim.add_controller(manager)
    return sim, app, manager


class TestInitialState:
    def test_starts_at_max_state(self, xu3, power_estimator):
        sim, app, manager = _setup(xu3, power_estimator)
        sim.step()
        assert manager.state == max_state(xu3)
        assert sim.machine.freq_mhz(BIG) == 1600
        assert sim.machine.freq_mhz(LITTLE) == 1300

    def test_custom_initial_state(self, xu3, power_estimator):
        sim = Simulation(xu3)
        model = DataParallelWorkload(
            WorkloadTraits(name="w"), 8, ConstantProfile(1.0), 5
        )
        sim.add_app(SimApp("w", model, PerformanceTarget(1.0, 1.1, 1.2)))
        manager = HarsManager(
            "w",
            HARS_E,
            PerformanceEstimator(),
            power_estimator,
            initial_state=SystemState(1, 1, 800, 800),
        )
        sim.add_controller(manager)
        sim.step()
        assert sim.machine.freq_mhz(BIG) == 800

    def test_threads_pinned_from_start(self, xu3, power_estimator):
        sim, app, _ = _setup(xu3, power_estimator)
        sim.step()
        assert all(t.affinity is not None for t in app.threads)


class TestAdaptation:
    def test_overperforming_app_is_throttled_into_window(
        self, xu3, power_estimator
    ):
        sim, app, manager = _setup(xu3, power_estimator)
        sim.run(until_s=300)
        assert manager.adaptations >= 1
        final_rate = app.log.window_rate(5)
        assert final_rate == pytest.approx(0.5, abs=0.2)

    def test_adaptation_reduces_power(self, xu3, power_estimator):
        sim, app, manager = _setup(xu3, power_estimator)
        sim.run(until_s=300)
        # Far below the ~6.5 W the max state draws.
        assert sim.sensor.average_power_w() < 4.0

    def test_no_adaptation_when_in_window(self, xu3, power_estimator):
        # Target window centred on the max-state rate: nothing to do.
        sim, app, manager = _setup(
            xu3, power_estimator, target=(0.95, 1.05, 1.15)
        )
        sim.run(until_s=100)
        assert manager.adaptations == 0
        assert manager.state == max_state(xu3)

    def test_hars_i_moves_one_step_at_a_time(self, xu3, power_estimator):
        sim, app, manager = _setup(xu3, power_estimator, policy=HARS_I)
        states = []

        original = manager._apply

        def tracking_apply(sim_, state):
            states.append(state)
            original(sim_, state)

        manager._apply = tracking_apply
        sim.run(until_s=400)
        for before, after in zip(states, states[1:]):
            assert before.manhattan_distance(after, xu3) <= 1

    def test_hars_e_converges_faster_than_hars_i(self, xu3, power_estimator):
        sim_e, app_e, _ = _setup(xu3, power_estimator, policy=HARS_E)
        sim_e.run(until_s=400)
        sim_i, app_i, _ = _setup(xu3, power_estimator, policy=HARS_I)
        sim_i.run(until_s=400)
        # Same workload, same target: the exhaustive version spends less
        # energy because it leaves the expensive max state in one jump.
        assert (
            sim_e.sensor.energy_j() < sim_i.sensor.energy_j()
        )

    def test_overhead_accounting(self, xu3, power_estimator):
        sim, app, manager = _setup(xu3, power_estimator)
        sim.run(until_s=300)
        assert manager.states_explored_total > 0
        assert manager.heartbeats_polled > 0
        expected = (
            manager.states_explored_total * manager.state_eval_cost_s
            + manager.heartbeats_polled * manager.poll_cost_s
        )
        assert manager.cpu_overhead_seconds() == pytest.approx(expected)
        assert 0 < manager.cpu_utilization_percent(sim.clock.now_s) < 50

    def test_allocation_reported_for_traces(self, xu3, power_estimator):
        sim, app, manager = _setup(xu3, power_estimator)
        sim.step()
        big, little = manager.current_allocation("w")
        assert big + little >= 1
        assert manager.current_allocation("other") is None


class TestValidation:
    def test_bad_adapt_every(self, xu3, power_estimator):
        with pytest.raises(ConfigurationError):
            HarsManager(
                "w", HARS_E, PerformanceEstimator(), power_estimator,
                adapt_every=0,
            )

    def test_cpu_utilization_needs_positive_elapsed(
        self, xu3, power_estimator
    ):
        manager = HarsManager(
            "w", HARS_E, PerformanceEstimator(), power_estimator
        )
        with pytest.raises(ConfigurationError):
            manager.cpu_utilization_percent(0.0)
