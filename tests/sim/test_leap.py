"""``Simulation.run`` leaps over steady ticks and changes no byte.

After a tick that adopted the write-back memo, ``run`` advances the
ticks that provably repeat it in one pass (``_leap``): each leapt tick
checks ``until_s`` and GTS's proven box, records the kept reading,
applies the load EWMA and moves the clock, and the models take their
advances in one ``repeat``.  ``step`` always runs one full tick, so a
``step`` loop with ``run``'s exit rule is the oracle: every case here
drives twin simulations both ways and compares heartbeat logs, sensor
energies and samples, thread loads, the models' work left, the clock
and the tick index with ``==``.
"""

import pytest

from repro.experiments.runner import RunConfig, RunShape, prepare
from repro.experiments.serialize import run_metrics_to_dict
from repro.platform.sensor import CHANNELS, DEFAULT_SAMPLE_PERIOD_S
from repro.sim.engine import Simulation
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.parsec import BENCHMARKS
from repro.workloads.phases import ConstantProfile

UNITS = 40
CORUN = ("bodytrack", "swaptions", "fluidanimate", "blackscholes")


def _twins(version, shapes):
    """Two identical prepared runs of ``version`` over ``shapes``."""
    return [prepare(version, shapes, RunConfig()) for _ in range(2)]


def _step_to(sim, until_s):
    """``run``'s loop, one full tick at a time through ``step``."""
    sim.start()
    while not sim._all_done():
        if until_s is not None and sim.clock.now_s >= until_s - 1e-9:
            break
        sim.step()


def _state(sim):
    return {
        "beats": [app.log.beats for app in sim.apps],
        "energy": [sim.sensor.energy_j(channel) for channel in CHANNELS],
        "elapsed": sim.sensor.elapsed_s,
        "samples": list(sim.sensor.samples),
        "loads": [thread.load for app in sim.apps for thread in app.threads],
        "work_left": [
            (list(app.model._shares), app.model._serial_remaining)
            if isinstance(app.model, DataParallelWorkload)
            else None
            for app in sim.apps
        ],
        "now": sim.clock.now_s,
        "ticks": sim._tick_index,
    }


@pytest.fixture
def leaps(monkeypatch):
    """Every leap ``run`` takes: ``(ticks leapt, clock after)``."""
    taken = []
    leap = Simulation._leap

    def recorded(self, until_s, limit):
        leapt = leap(self, until_s, limit)
        taken.append((leapt, self.clock.now_s))
        return leapt

    monkeypatch.setattr(Simulation, "_leap", recorded)
    return taken


def _leapt(leaps):
    return sum(leapt for leapt, _ in leaps)


# -- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARKS)
def test_run_equals_a_step_loop_under_hars_ei(leaps, name):
    shape = RunShape(name, n_units=UNITS, seed=1)
    leaping, stepping = _twins("hars-ei", shape)
    leaps.clear()  # the baseline max-rate run leaps too
    leaping.sim.run(until_s=leaping.horizon_s)
    _step_to(stepping.sim, stepping.horizon_s)
    assert _state(leaping.sim) == _state(stepping.sim)
    assert run_metrics_to_dict(leaping.finish().metrics) == run_metrics_to_dict(
        stepping.finish().metrics
    )
    if name != "ferret":  # the pipeline model counts no steady ticks
        assert _leapt(leaps) > 0


def test_run_equals_a_step_loop_on_the_mp_hars_ei_corun(leaps):
    shapes = [RunShape(name, n_units=UNITS, seed=1) for name in CORUN]
    leaping, stepping = _twins("mp-hars-ei", shapes)
    leaps.clear()
    leaping.sim.run(until_s=leaping.horizon_s)
    _step_to(stepping.sim, stepping.horizon_s)
    assert _state(leaping.sim) == _state(stepping.sim)
    assert _leapt(leaps) > 0


# -- where a leap ends ----------------------------------------------------------


def _long_leap(leaps, name="facesim"):
    """A probe run's first leap of at least 20 ticks: ``(start, end)``
    simulated times."""
    probe = prepare("hars-ei", RunShape(name, n_units=UNITS, seed=1), RunConfig())
    leaps.clear()
    before = []
    leap = Simulation._leap

    def timed(self, until_s, limit):
        before.append(self.clock.now_s)
        return leap(self, until_s, limit)

    Simulation._leap = timed
    try:
        probe.sim.run(until_s=probe.horizon_s)
    finally:
        Simulation._leap = leap
    for start, (leapt, end) in zip(before, leaps):
        if leapt >= 20:
            return start, end
    raise AssertionError("no leap of 20 ticks in the probe run")


def _twins_to(leaps, until_s, name="facesim"):
    """Twin runs to ``until_s``, one through ``run``, then on to the
    end; compares them at both.  Returns the last leap before the cut
    and the sample times at the cut."""
    leaping, stepping = _twins("hars-ei", RunShape(name, n_units=UNITS, seed=1))
    leaps.clear()
    leaping.sim.run(until_s=until_s)
    _step_to(stepping.sim, until_s)
    assert _state(leaping.sim) == _state(stepping.sim)
    last = [entry for entry in leaps if entry[0]][-1]
    sampled = [sample.time_s for sample in leaping.sim.sensor.samples]
    # On to the end: the cut leap left nothing behind.
    leaping.sim.run(until_s=leaping.horizon_s)
    _step_to(stepping.sim, stepping.horizon_s)
    assert _state(leaping.sim) == _state(stepping.sim)
    return last, sampled


def test_a_leap_ends_at_until_s(leaps):
    start, end = _long_leap(leaps)
    until_s = (start + end) / 2
    (leapt, stopped), _ = _twins_to(leaps, until_s)
    assert leapt > 0 and until_s - 1e-9 <= stopped < end


def test_a_leap_ends_at_a_sensor_sample_boundary(leaps):
    start, end = _long_leap(leaps)
    period = DEFAULT_SAMPLE_PERIOD_S
    boundary = (int(start / period) + 1) * period
    assert boundary < end
    # ``run`` stops after the tick whose end reaches the boundary: the
    # leap's last ``record`` takes the sample.
    (leapt, stopped), sampled = _twins_to(leaps, boundary)
    assert leapt > 0 and stopped < end
    assert sampled[-1] == boundary


def _steady(sim):
    """The models' steady count for the ticks after ``sim``'s last,
    capped at 10 (0 unless its memo is one round)."""
    rounds = sim._writeback_memo[0]
    if len(rounds) != 1:
        return 0
    return min(
        app.model.steady_ticks(entry[0], used, 10)
        for app, entry, used in rounds[0][1]
    )


def test_a_leap_ends_where_a_load_leaves_its_box(leaps):
    """Narrow one moving row's proven interval (still a proof: a subset
    of a proven box) so its load leaves it on the fifth leapt tick."""
    runs = _twins("hars-ei", RunShape("facesim", n_units=UNITS, seed=1))
    sims = [run.sim for run in runs]
    leaping, stepping = sims
    moving = []
    while not moving:
        assert not leaping._all_done(), "no leap start with a moving load"
        for sim in sims:
            sim.step()
        box = leaping.scheduler.steady_box(leaping.apps)
        if leaping._replayed and box is not None and _steady(leaping) >= 10:
            demand = leaping._arr_demand
            moving = [
                index
                for index, row in enumerate(box)
                if row[0].load != demand[row[0]._slot]
            ]
    index = moving[0]
    thread = box[index][0]
    target = demand[thread._slot]
    path = [thread.load]
    for _ in range(5):
        path.append(path[-1] * leaping._load_decay + target * leaping._load_gain)
    edge = (path[4] + path[5]) / 2
    for sim in sims:
        row = sim.scheduler._box[index]
        if target > path[0]:
            sim.scheduler._box[index] = row[:4] + (edge,)
        else:
            sim.scheduler._box[index] = row[:3] + (edge, row[4])
    leaps.clear()
    until_s = leaping.clock.now_s + 1.0
    leaping.run(until_s=until_s)
    _step_to(stepping, until_s)
    assert leaps[0][0] == 5
    assert _state(leaping) == _state(stepping)


def test_no_leap_from_the_tick_that_ends_the_serial_phase(leaps):
    """The tick that ends blackscholes' serial phase consumes what the
    memo saved, so it is adopted, yet it changes the runnable set: GTS's
    box must not be offered, or the first heartbeat comes late."""
    leaping, stepping = _twins(
        "hars-ei", RunShape("blackscholes", n_units=UNITS, seed=1)
    )
    sim = leaping.sim
    model = sim.apps[0].model
    assert model.in_serial_phase
    while model.in_serial_phase:
        sim.run(until_s=sim.clock.now_s + sim.tick_s / 2)
    assert sim._replayed
    assert sim.scheduler.steady_box(sim.apps) is None
    assert len(sim.apps[0].log) == 0
    sim.run(until_s=leaping.horizon_s)
    _step_to(stepping.sim, stepping.horizon_s)
    assert _state(sim) == _state(stepping.sim)
    assert _leapt(leaps) > 0


# -- the models' steady counts --------------------------------------------------


def _model(serial_work=0.0):
    return DataParallelWorkload(
        WorkloadTraits("steady"),
        n_threads=3,
        profile=ConstantProfile(9.0),
        n_units=2,
        serial_work=serial_work,
    )


@pytest.mark.parametrize("serial_work", [0.0, 4.0])
def test_repeat_equals_the_advances_it_counts(serial_work):
    grants = {0: 0.0137, 1: 0.0211, 2: 0.0173}
    counted, advanced = _model(serial_work), _model(serial_work)
    used = dict(advanced.advance(grants).consumed)
    counted.advance(grants)
    steady = counted.steady_ticks(grants, used, 10**6)
    assert steady > 0
    for _ in range(steady):
        result = advanced.advance(grants)
        assert (result.consumed, result.heartbeats, result.done) == (used, 0, False)
    runnable = advanced.runnable_threads()
    counted.repeat(grants, steady)
    assert (counted._shares, counted._serial_remaining) == (
        advanced._shares,
        advanced._serial_remaining,
    )
    assert counted.runnable_threads() == runnable
    # The margin: the count stops within a few advances of the change.
    changed = 0
    while advanced.advance(grants).consumed == used and changed < 10:
        changed += 1
    assert changed <= 3


def test_steady_ticks_refuses_a_different_consumption():
    grants = {0: 0.01, 1: 0.01, 2: 0.01}
    model = _model()
    used = dict(model.advance(grants).consumed)
    assert model.steady_ticks(grants, {**used, 2: 0.0}, 100) == 0
    assert model.steady_ticks(grants, used, 100) == 100
    assert model.steady_ticks(grants, used, 0) == 0
