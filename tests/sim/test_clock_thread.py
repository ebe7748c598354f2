"""Unit tests for the clock and thread primitives."""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import odroid_xu3
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.sim.thread import INITIAL_LOAD, LOAD_TIME_CONSTANT_S, SimThread
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.parsec import make_benchmark
from repro.workloads.phases import ConstantProfile


def _sim(model, tick_s=0.01):
    sim = Simulation(odroid_xu3(), tick_s=tick_s)
    app = sim.add_app(SimApp("a", model, PerformanceTarget(1.0, 1.0, 1.0)))
    return sim, app


def _serial_model():
    """Two threads whose serial phase outlasts the first tick."""
    return DataParallelWorkload(
        WorkloadTraits(name="serial"),
        2,
        ConstantProfile(1.0),
        n_units=1,
        serial_work=1e6,
    )


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_s == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.now_s == pytest.approx(0.75)

    def test_cannot_go_backwards(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-0.1)
        with pytest.raises(SimulationError):
            SimClock().advance(0.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(2.0)
        clock.reset()
        assert clock.now_s == 0.0


class TestSimThread:
    def test_new_threads_start_heavy(self):
        thread = SimThread(app_name="a", local_index=0)
        assert thread.load == INITIAL_LOAD == 1.0

    # The load signal is the engine's rule, applied once per tick:
    # load <- load * exp(-tick / tau) + demand * (1 - exp(-tick / tau)).

    def test_load_decays_when_idle(self):
        # One tick of length tau: the serial phase runs thread 0 only,
        # so thread 1 is idle and decays from 1 by exactly e^-1.
        sim, app = _sim(_serial_model(), tick_s=LOAD_TIME_CONSTANT_S)
        sim.step()
        assert app.threads[1].load == pytest.approx(math.exp(-1.0))
        assert app.threads[0].load == pytest.approx(1.0)

    def test_load_recovers_when_busy(self):
        sim, app = _sim(MicrobenchWorkload(n_threads=1))
        thread = app.threads[0]
        thread.load = 0.0
        for _ in range(100):
            sim.step()
        assert thread.load > 0.6

    def test_load_stays_in_unit_interval(self):
        # Thread 0 runs the serial phase, hungry; the others idle.
        sim, app = _sim(make_benchmark("blackscholes", n_units=4))
        loads = set()
        for _ in range(100):
            sim.step()
            for thread in app.threads:
                assert 0.0 <= thread.load <= 1.0
                loads.add(thread.load)
        assert min(loads) < 0.5 < max(loads)

    def test_update_needs_positive_dt(self):
        with pytest.raises(ConfigurationError):
            Simulation(odroid_xu3(), tick_s=0.0)

    def test_affinity_set_and_clear(self):
        thread = SimThread(app_name="a", local_index=0)
        thread.set_affinity(frozenset({1, 2}))
        assert thread.affinity == frozenset({1, 2})
        thread.set_affinity(None)
        assert thread.affinity is None

    def test_empty_affinity_rejected(self):
        thread = SimThread(app_name="a", local_index=0)
        with pytest.raises(SimulationError):
            thread.set_affinity(frozenset())

    def test_key(self):
        assert SimThread(app_name="app", local_index=3).key() == "app/t3"
