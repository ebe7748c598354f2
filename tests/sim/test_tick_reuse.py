"""The tick's reuse of the previous tick's work changes no byte.

``Simulation.step`` replays round 1's grant plan and the power reading
of the previous tick when every input of each is unchanged.  A
*forgetful* step drops both memos before every tick, so it recomputes
everything; its runs must hash to the same golden digests as the normal
runs (``tests/golden``), which assert the normal runs themselves.  No
golden run changes a speed factor while the placement stands still, so
directed twin runs change each key input alone between two steady
ticks and compare the normal step with the forgetful one.

The replayed grant dicts go to ``advance`` again, so every workload
model must leave its ``grants`` argument unchanged.
"""

import pytest

from repro.experiments.runner import clear_max_rate_cache
from repro.fleet.serving import ServerWorkload
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import odroid_xu3
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.parsec import make_benchmark
from repro.workloads.phases import ConstantProfile
from repro.workloads.pipeline import PipelineWorkload, StageSpec
from tests.golden import GOLDEN_RUNS, load_golden, outcome_digest

#: The single-board golden runs the forgetful step replays: the four
#: tick-path pins and the MP-HARS-E co-run.
FORGETFUL_RUNS = (
    "hars-ei-ferret-x60",
    "baseline-blackscholes-x40",
    "ondemand-blackscholes-x40",
    "hars-e-app-runaway-x80",
    "mp-hars-e-swaptions-bodytrack-x60",
)


@pytest.mark.parametrize("name", FORGETFUL_RUNS)
def test_forgetful_step_gives_the_golden_digest(monkeypatch, name):
    step = Simulation.step

    def forgetful(self):
        self._plan_memo = None
        self._power_memo = None
        step(self)

    monkeypatch.setattr(Simulation, "step", forgetful)
    # The targets come from baseline runs: make those forgetful too.
    clear_max_rate_cache()
    try:
        assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]
    finally:
        clear_max_rate_cache()


def test_steady_ticks_reuse_the_plan_and_the_reading():
    sim = Simulation(odroid_xu3())
    model = make_benchmark("swaptions", n_units=20)
    sim.add_app(SimApp("swaptions", model, PerformanceTarget(1.0, 1.0, 1.0)))
    plans, readings = [], []
    for _ in range(50):
        sim.step()
        plans.append(sim._plan_memo[3])
        readings.append(sim._power_memo[3])
    # Nothing moves the unmanaged swaptions threads between these
    # ticks: one plan serves them all.  A tick in which a unit
    # completes leaves some core time unused, so its reading is new.
    assert all(plan is plans[0] for plan in plans)
    reused = sum(now is last for last, now in zip(readings, readings[1:]))
    assert reused >= 40


def _twin_run(change, forgetful):
    """30 ticks of unmanaged swaptions, ``change`` applied to the
    simulation between two steady ticks, then 30 more ticks; returns
    what the run produced."""
    sim = Simulation(odroid_xu3())
    model = make_benchmark("swaptions", n_units=20)
    app = sim.add_app(
        SimApp("swaptions", model, PerformanceTarget(1.0, 1.0, 1.0))
    )
    for tick in range(60):
        if tick == 30:
            change(sim, app)
        if forgetful:
            sim._plan_memo = None
            sim._power_memo = None
        sim.step()
    return (
        [beat.time_s for beat in app.log.beats],
        [thread.load for thread in app.threads],
        sim.sensor.energy_j("big"),
        sim.sensor.energy_j("little"),
        model._shares,
    )


def _speed_factor(sim, app):
    app.speed_factor = 2.0


def _big_frequency(sim, app):
    sim.machine.set_freq_mhz("big", 1000)


def _pin_thread(sim, app):
    app.threads[0].set_affinity(frozenset({0}))


@pytest.mark.parametrize(
    "change", [_speed_factor, _big_frequency, _pin_thread],
    ids=["speed-factor", "big-frequency", "placement"],
)
def test_one_key_input_changed_alone_forces_a_fresh_plan(change):
    # Each change leaves the other key inputs as they were, so only its
    # own part of the key can tell the reused plan or reading stale.
    assert _twin_run(change, forgetful=False) == _twin_run(
        change, forgetful=True
    )


def _dataparallel():
    model = DataParallelWorkload(
        WorkloadTraits(name="dp"), 3, ConstantProfile(3.0), 4, serial_work=0.5
    )
    return model, [{0: 1.0, 1: 0.5}, {0: 2.5, 1: 2.5, 2: 0.2}, {2: 9.0}]


def _pipeline():
    stages = (StageSpec("in", 1, 0.5), StageSpec("out", 2, 1.0))
    model = PipelineWorkload(WorkloadTraits(name="pipe"), stages, 6, 2)
    return model, [{0: 2.0, 1: 1.0}, {0: 1.0, 1: 1.0, 2: 1.0}, {2: 3.0}]


def _microbench():
    return MicrobenchWorkload(n_threads=2, duty=0.5), [{0: 1.0, 1: 2.0}]


def _server():
    lane = ServerWorkload("base", n_threads=2)
    lane.submit(0, 1.0)
    lane.submit(1, 2.5)
    return lane, [{0: 0.5, 1: 0.5}, {1: 3.0}, {0: 1.0, 1: 1.0}]


@pytest.mark.parametrize(
    "make", [_dataparallel, _pipeline, _microbench, _server],
    ids=["dataparallel", "pipeline", "microbench", "server"],
)
def test_advance_leaves_its_grants_unchanged(make):
    model, grant_sequence = make()
    for grants in grant_sequence:
        before = list(grants.items())
        model.advance(grants)
        assert list(grants.items()) == before
