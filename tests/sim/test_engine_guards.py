"""Engine guard rails: runaway protection, grant rounds."""

import pytest

import repro.sim.engine as engine_module
from repro.errors import SimulationError
from repro.heartbeats.targets import PerformanceTarget
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.phases import ConstantProfile


def _app(n_units=5, n_threads=2):
    model = DataParallelWorkload(
        WorkloadTraits(name="w"), n_threads, ConstantProfile(1.0), n_units
    )
    return SimApp("w", model, PerformanceTarget(1.0, 1.0, 1.0))


class TestRunawayGuard:
    def test_max_ticks_guard_raises(self, xu3, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_TICKS", 10)
        sim = Simulation(xu3)
        # 50 units of heavy work cannot finish within 10 ticks.
        sim.add_app(_app(n_units=50))
        with pytest.raises(SimulationError, match="stalled|exceeded"):
            sim.run()


class TestGrantRounds:
    def test_rounds_cap_is_respected(self, xu3, monkeypatch):
        """With a single grant round, a blocked co-tenant's leftover time
        is wasted — throughput of the hungry thread drops measurably."""

        def run(rounds):
            monkeypatch.setattr(Simulation, "GRANT_ROUNDS", rounds)
            sim = Simulation(xu3)
            spin = SimApp(
                "spin",
                MicrobenchWorkload(n_threads=1, duty=1.0),
                PerformanceTarget(1.0, 1.0, 1.0),
            )
            light = SimApp(
                "light",
                MicrobenchWorkload(n_threads=1, duty=0.05),
                PerformanceTarget(1.0, 1.0, 1.0),
            )
            sim.add_app(spin)
            sim.add_app(light)
            spin.threads[0].set_affinity(frozenset({4}))
            light.threads[0].set_affinity(frozenset({4}))
            sim.run(until_s=1.0)
            return spin.model.work_done

        assert run(3) > 1.5 * run(1)

    def test_zero_demand_tick_is_harmless(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_app(n_units=1))
        sim.run(until_s=60)  # app finishes almost immediately
        before = sim.clock.now_s
        sim.step()  # extra tick with nothing runnable
        assert sim.clock.now_s > before
