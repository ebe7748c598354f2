"""The tick's reuse of earlier ticks' work changes no byte.

``Simulation.step`` reuses four things when it can prove them
unchanged: GTS's placement (the scheduler's anchor, and the proven
box of loads that covers it while the loads stay in their intervals),
round 1's grant plan, the write-back of a repeated tick, and the power
reading.  A *forgetful* step drops every memo before every tick, so it
recomputes everything; its runs must hash to the same golden digests as
the normal runs (``tests/golden``), which assert the normal runs
themselves.  No golden run changes a speed factor while the placement
stands still, so directed twin runs change each key input alone between
two steady ticks and compare the normal step with the forgetful one;
scripted twin runs push the placement proof's margins to zero the same
way.

The replayed grant dicts go to ``advance`` again, so every workload
model must leave its ``grants`` argument unchanged.
"""

import math

import pytest

from repro.experiments.runner import clear_max_rate_cache
from repro.faults import FaultConfig, FaultInjector
from repro.fleet.serving import ServerWorkload
from repro.heartbeats.targets import PerformanceTarget
from repro.kernel.bus import EventBus, PowerSample
from repro.platform.sensor import CHANNELS, PowerSensor
from repro.platform.spec import odroid_xu3
from repro.sched.gts import GtsScheduler
from repro.sched.load_tracking import (
    DOWN_MIGRATION_THRESHOLD,
    UP_MIGRATION_THRESHOLD,
)
from repro.sim.engine import DEFAULT_TICK_S, Simulation
from repro.sim.process import SimApp
from repro.sim.thread import LOAD_TIME_CONSTANT_S
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


def _forget(sim):
    """Drop every memo the tick keeps: the next step recomputes all."""
    sim._plan_memo = None
    sim._power_memo = None
    sim._writeback_memo = None
    sim.scheduler._anchor = None
    sim.scheduler._box = None


@pytest.mark.parametrize("name", FORGETFUL_RUNS)
def test_forgetful_step_gives_the_golden_digest(monkeypatch, name):
    step = Simulation.step

    def forgetful(self):
        _forget(self)
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
    placements, plans, readings = [], [], []
    place = sim.scheduler.place
    sim.scheduler.place = lambda s: placements.append(place(s)) or placements[-1]
    opened = []
    open_rounds = sim._open_rounds
    sim._open_rounds = lambda *args: opened.append(1) or open_rounds(*args)
    for _ in range(50):
        sim.step()
        plans.append(sim._plan_memo[3])
        readings.append(sim._power_memo[3])
    # Nothing moves the unmanaged swaptions threads between these
    # ticks: one plan serves them all, and GTS proves its placement
    # from the second tick on.  A tick in which a unit completes leaves
    # some core time unused, so its reading is new; it also emits a
    # heartbeat, so its write-back is done afresh.
    assert all(plan is plans[0] for plan in plans)
    assert all(now is placements[1] for now in placements[2:])
    reused = sum(now is last for last, now in zip(readings, readings[1:]))
    assert reused >= 40
    assert len(opened) <= 5


def test_power_subscribers_share_one_read_only_view_per_reading():
    """A ``PowerSample`` carries one read-only view per distinct reading:
    the same object while the reading is reused, a new one with it."""
    sim = Simulation(odroid_xu3())
    model = make_benchmark("swaptions", n_units=20)
    sim.add_app(SimApp("swaptions", model, PerformanceTarget(1.0, 1.0, 1.0)))
    samples, readings = [], []
    sim.bus.subscribe(PowerSample, samples.append)
    for _ in range(50):
        sim.step()
        readings.append(sim._power_memo[3])
    views = [sample.watts for sample in samples]
    assert len(views) == 50
    assert [dict(view) for view in views] == readings
    for last, now, last_view, view in zip(
        readings, readings[1:], views, views[1:]
    ):
        assert (view is last_view) == (now is last)
    with pytest.raises(TypeError):
        views[0]["total"] = 0.0
    assert sum(now is last for last, now in zip(views, views[1:])) >= 40


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
            _forget(sim)
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


# -- the placement proof, pushed to its edges ---------------------------------


def _scripted_run(affinities, script, forgetful, ticks=40):
    """Unmanaged spinning threads with the given affinities; before
    every tick ``script(tick, sim, app)`` may set loads or move state.
    Returns each tick's cores, the energy, and per tick whether GTS ran
    its full scan."""
    sim = Simulation(odroid_xu3())
    app = sim.add_app(
        SimApp(
            "spin",
            MicrobenchWorkload(n_threads=len(affinities)),
            PerformanceTarget(1.0, 1.0, 1.0),
        )
    )
    for thread, mask in zip(app.threads, affinities):
        thread.set_affinity(mask)
    scheduler = sim.scheduler
    scans = []
    fresh = scheduler._place_fresh
    scheduler._place_fresh = lambda *args: scans.append(1) or fresh(*args)
    cores, scanned = [], []
    for tick in range(ticks):
        script(tick, sim, app)
        if forgetful:
            _forget(sim)
        before = len(scans)
        sim.step()
        scanned.append(len(scans) > before)
        cores.append(tuple(thread.current_core for thread in app.threads))
    return cores, sim.sensor.energy_j(), scanned


def _twins(affinities, script, ticks=40):
    """The normal run's output and scan flags, checked against the
    forgetful run's output."""
    cores, energy, scanned = _scripted_run(affinities, script, False, ticks)
    assert (cores, energy) == _scripted_run(affinities, script, True, ticks)[:2]
    return cores, scanned


def _set_loads(app, *loads):
    for thread, load in zip(app.threads, loads):
        thread.load = load


#: A load that ties t2's pick: core 4 holds 0.5 and is t2's current
#: core (stickiness bonus), core 5 holds exactly ``0.5 - bonus``.
_TIE = 0.5 - GtsScheduler.STICKINESS
_TIE_SCHEDULE = (
    [0.9] * 10  # core 5 heavier: t2 settles on core 4
    + [_TIE] * 10  # exact tie, bit-equal loads: the anchor holds
    + [math.nextafter(_TIE, 1.0)] * 2  # core 4 still wins, by an ulp
    + [_TIE] * 5
    + [math.nextafter(_TIE, 0.0)] * 3  # core 5 now wins: t2 moves
    + [0.9] * 5
    + [_TIE] * 5
)


def test_an_exact_score_tie_is_reused_only_while_bit_equal():
    pair = frozenset({4, 5})

    def script(tick, sim, app):
        _set_loads(app, 0.5, _TIE_SCHEDULE[tick], 0.7)

    cores, scanned = _twins([pair] * 3, script, ticks=len(_TIE_SCHEDULE))
    assert cores[19] == (4, 5, 4)  # the tie keeps t2 on its core
    assert cores[27][2] == 5  # an ulp the other way moves it
    assert not any(scanned[11:20])
    assert scanned[20] and scanned[27]


#: t0's load, on the migration thresholds and one ulp either side.
_UP, _DOWN = UP_MIGRATION_THRESHOLD, DOWN_MIGRATION_THRESHOLD
_THRESHOLD_SCHEDULE = (
    [0.1] * 4  # light: little
    + [math.nextafter(_UP, 0.0)] * 4  # one ulp short of up: stays little
    + [_UP] * 6  # exactly up: moves big, then holds there
    + [math.nextafter(_UP, 0.0)] * 3  # hysteresis: stays big
    + [math.nextafter(_DOWN, 1.0)] * 3  # still above down: stays big
    + [_DOWN] * 6  # exactly down: moves little, then holds there
    + [math.nextafter(_DOWN, 1.0)] * 3  # hysteresis: stays little
    + [0.9] * 3
    + [_DOWN] * 4
)


def test_loads_on_the_migration_thresholds():
    def script(tick, sim, app):
        _set_loads(app, _THRESHOLD_SCHEDULE[tick], 1.0, 1.0)

    cores, scanned = _twins(
        [None, frozenset({0}), frozenset({4})],
        script,
        ticks=len(_THRESHOLD_SCHEDULE),
    )
    big = [core >= 4 for core, _, _ in cores]
    assert big[7] is False and big[8] is True and big[19] is True
    assert big[20] is False and big[28] is False and big[31] is True
    assert big[35] is False
    # Bit-equal loads on a threshold (distance 0) still reuse.
    assert not any(scanned[10:14]) and not any(scanned[22:26])


def test_an_equal_but_new_affinity_or_cpuset_is_a_new_key():
    pair = frozenset({4, 5, 6})

    def script(tick, sim, app):
        # ``frozenset(a_frozenset)`` returns the same object: build the
        # equal sets from lists.
        if tick == 15:
            for thread in app.threads:
                thread.set_affinity(frozenset(list(thread.affinity)))
                assert thread.affinity == pair and thread.affinity is not pair
        if tick == 25:
            app.set_cpuset(frozenset(range(8)))
        if tick == 30:
            app.set_cpuset(frozenset(list(app.cpuset)))

    cores, scanned = _twins([pair] * 4, script)
    assert scanned[15] and scanned[25] and scanned[30]
    assert not any(scanned[5:15])


def test_a_current_core_written_outside_place_is_seen():
    pair = frozenset({4, 5})

    def script(tick, sim, app):
        # As the fleet engine's read-back does: a core written straight
        # into the thread, here the other one of its pair.
        if tick in (12, 24):
            thread = app.threads[1]
            thread.current_core = 9 - thread.current_core

    cores, scanned = _twins([pair] * 3, script)
    assert scanned[12] and scanned[24]
    assert not any(scanned[4:12])


#: Over the whole golden ``baseline-blackscholes-x40`` run (6,670
#: ticks): ``GtsScheduler._pick_partitioned`` calls were 25,070 (3.76 a
#: tick) when GTS rescanned every tick, 1,732 (0.26 a tick) with a
#: point proof whose cluster bound was the distance to the nearer
#: threshold, and 1,060 (162 scans) with the exact hysteresis bounds.
#: Proof passes (``_proves`` calls) were 6,588 with the point proof
#: alone, 1,086 with a separate stretch proof (810 point proofs, 276
#: stretch attempts), and 794 with the one box proof.
def test_gts_rescans_only_when_its_proof_fails(monkeypatch):
    counts = {"picks": 0, "proofs": 0}
    pick = GtsScheduler._pick_partitioned
    proves = GtsScheduler._proves
    init = Simulation.__init__
    sims = []

    def counted_pick(self, *args):
        counts["picks"] += 1
        return pick(self, *args)

    def counted_proves(self, *args):
        counts["proofs"] += 1
        return proves(self, *args)

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(GtsScheduler, "_pick_partitioned", counted_pick)
    monkeypatch.setattr(GtsScheduler, "_proves", counted_proves)
    monkeypatch.setattr(Simulation, "__init__", tracked_init)
    clear_max_rate_cache()
    try:
        GOLDEN_RUNS["baseline-blackscholes-x40"]()
    finally:
        clear_max_rate_cache()
    # Ticks from each simulation's own index: ``run`` leaps over steady
    # ticks without calling ``step``.
    ticks = sum(sim._tick_index for sim in sims)
    assert ticks == 6670
    assert counts["picks"] < 0.5 * ticks
    assert counts["proofs"] < 0.25 * ticks


# -- the stretch: loads moving toward repeated demands ------------------------


def _duty_run(threads, script, forgetful, ticks):
    """One single-thread microbench app per ``(duty, affinity)`` (a
    thread's demand is its duty); before every tick ``script(tick, sim,
    apps)`` may set loads or move state.  Returns each tick's cores, the
    energy, and per tick whether GTS ran its full scan and whether it
    ran a proof pass (of a stretch or of the point of this tick's
    loads)."""
    sim = Simulation(odroid_xu3())
    apps = []
    for index, (duty, affinity) in enumerate(threads):
        app = sim.add_app(
            SimApp(
                f"spin{index}",
                MicrobenchWorkload(n_threads=1, duty=duty),
                PerformanceTarget(1.0, 1.0, 1.0),
            )
        )
        app.threads[0].set_affinity(affinity)
        apps.append(app)
    scheduler = sim.scheduler
    calls = {"scans": 0, "proofs": 0}
    fresh, proves = scheduler._place_fresh, scheduler._proves

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    scheduler._place_fresh = counted("scans", fresh)
    scheduler._proves = counted("proofs", proves)
    cores, scanned, proved = [], [], []
    for tick in range(ticks):
        script(tick, sim, apps)
        if forgetful:
            _forget(sim)
        before = dict(calls)
        sim.step()
        scanned.append(calls["scans"] > before["scans"])
        proved.append(calls["proofs"] > before["proofs"])
        cores.append(tuple(app.threads[0].current_core for app in apps))
    return cores, sim.sensor.energy_j(), scanned, proved


def _duty_twins(threads, script, ticks):
    """The normal run's output and its scan and proof flags, checked
    against the forgetful run's output."""
    normal = _duty_run(threads, script, False, ticks)
    assert normal[:2] == _duty_run(threads, script, True, ticks)[:2]
    return normal[0], normal[2], normal[3]


def test_a_demand_changed_mid_stretch_ends_it():
    # t2 shares the lighter of cores 4 and 5 with the pinned t0 or t1.
    threads = [
        (0.3, frozenset({4})),
        (0.6, frozenset({5})),
        (1.0, frozenset({4, 5})),
    ]

    def script(tick, sim, apps):
        if tick == 100:
            apps[0].model.duty = 0.9  # t0's demand rises past t1's

    cores, scanned, proved = _duty_twins(threads, script, 200)
    assert cores[99][2] == 4 and cores[199][2] == 5
    # The loads had settled into a stretch: no proof, no scan.
    assert not any(proved[60:101]) and not any(scanned[60:101])
    # The stretch still covers t0's rise while its load stays in its
    # proven interval; the tick it leaves runs the proofs, which fail,
    # and the scan moves t2.
    moved = cores.index(cores[199], 100)
    assert moved > 101 and not any(scanned[101:moved])
    assert proved[moved] and scanned[moved]


#: A stickiness of 1/4 and demands of 1/2 and 1/4 make an exact tie of
#: exact float fixed points: ``x·decay + x·gain == x`` for each.
_TIE_STICKINESS = 0.25


def _tie_script(t1_load):
    """Holds the loads at 1/2, ``t1_load`` and 1 (each tick: a no-op
    for a load at its fixed point)."""

    def script(tick, sim, apps):
        if tick == 0:
            sim.scheduler.STICKINESS = _TIE_STICKINESS
            apps[2].threads[0].set_affinity(frozenset({4}))
        for app, load in zip(apps, (0.5, t1_load, 1.0)):
            app.threads[0].load = load
        if tick == 5:
            # t2 may now leave core 4: core 4 scores 0.5 - 1/4 (its
            # stickiness bonus), core 5 scores t1's load.
            apps[2].threads[0].set_affinity(frozenset({4, 5}))

    return script


_TIE_THREADS = [(0.5, frozenset({4})), (0.25, frozenset({5})), (1.0, None)]


def test_a_tie_at_an_exact_fixed_point_is_proven_for_the_stretch():
    cores, scanned, proved = _duty_twins(_TIE_THREADS, _tie_script(0.25), 40)
    assert all(core == (4, 5, 4) for core in cores[5:])
    assert scanned[5] and not any(scanned[6:])
    # Neither tied core has a moved row: the stretch covers the tie.
    assert not any(proved[8:])


def _off_fixed_point(value, demand):
    """The value nearest above ``value`` that the EWMA moves."""
    decay = math.exp(-DEFAULT_TICK_S / LOAD_TIME_CONSTANT_S)
    gain = 1.0 - decay
    while value * decay + demand * gain == value:
        value = math.nextafter(value, 1.0)
    return value


def test_a_tie_one_ulp_off_a_fixed_point_is_not():
    # t1's load is held bit-equal, so the point proof holds the tie
    # every tick; but the EWMA alone would move it, so its interval in
    # a stretch is not a point, no stretch covers the tie, and each
    # tick is proven on its own.
    off = _off_fixed_point(0.25, 0.25)
    cores, scanned, proved = _duty_twins(_TIE_THREADS, _tie_script(off), 40)
    assert all(core == (4, 5, 4) for core in cores[5:])
    assert scanned[5] and not any(scanned[6:])
    assert all(proved[6:])


def test_an_interval_across_a_threshold_is_refused():
    # t0 is hungry (demand 1) but starts light: it rises on little
    # until its load reaches the up threshold, then moves to big.
    threads = [(1.0, None), (1.0, frozenset({0})), (1.0, frozenset({4}))]

    def script(tick, sim, apps):
        if tick == 0:
            apps[0].threads[0].load = 0.1

    cores, scanned, proved = _duty_twins(threads, script, 60)
    moved = next(tick for tick, core in enumerate(cores) if core[0] >= 4)
    assert cores[moved - 1][0] < 4 and moved > 5
    # Each tick on little is proven on its own: the interval from the
    # load to its demand crosses the up threshold.  The point proof
    # holds while the load stays below up (hysteresis), so GTS does not
    # rescan until the load reaches it.
    assert all(proved[2:moved]) and scanned[moved]
    assert not any(scanned[2:moved])
    # On big, no load above down leaves it: once the anchor settles, a
    # stretch up to the demand of 1 is proven, and no proof runs again.
    assert not any(proved[moved + 3 :])


# -- the sensor's reused reading ----------------------------------------------


_READING_A = {"big": 2.0, "little": 0.5, "board": 1.25, "total": 3.75}
_READING_B = {"big": 1.0, "little": 0.25, "board": 1.0, "total": 2.25}


def _sensor_run(same_object, between=None, hook=None):
    """Twelve ticks of reading A then twelve of B, handed as the same
    dict each tick or as a fresh copy; ``between(sensor, tick)`` runs
    before each tick.  Returns what a reader and the energy saw."""
    sensor = PowerSensor(sample_period_s=0.03)
    if hook is not None:
        sensor.fault_hook = hook()
    readings = [_READING_A] * 12 + [_READING_B] * 12
    for tick, reading in enumerate(readings):
        if between is not None:
            between(sensor, tick)
        sensor.record(0.01, reading if same_object else dict(reading))
    return (
        [(sample.time_s, dict(sample.watts)) for sample in sensor.samples],
        [sensor.energy_j(channel) for channel in CHANNELS],
        sensor.dropped_samples,
        sensor.clamped_samples,
    )


def _reset_at_5(sensor, tick):
    if tick == 5:
        sensor.reset()


def _sync_at_5_and_17(sensor, tick):
    if tick in (5, 17):
        sensor.sync(
            {channel: 1.0 for channel in CHANNELS},
            sensor.elapsed_s,
            {channel: 9.0 for channel in CHANNELS},
        )


def _editing_hook():
    def hook(time_s, watts):
        watts["big"] *= 2.0  # edits the dict it is handed
        return watts

    return hook


def _fault_hook(**rates):
    def make():
        return FaultInjector(FaultConfig(seed=3, **rates), EventBus()).filter_power

    return make


@pytest.mark.parametrize(
    "between, hook",
    [
        (None, None),
        (_reset_at_5, None),
        (_sync_at_5_and_17, None),
        (None, _editing_hook),
        (None, _fault_hook(sensor_stuck_rate=0.5, sensor_stuck_samples=3)),
        (None, _fault_hook(sensor_noise_rate=0.7, sensor_noise_std=0.2)),
    ],
    ids=["plain", "reset", "sync", "editing-hook", "stuck", "noise"],
)
def test_a_reused_reading_is_recorded_like_a_fresh_one(between, hook):
    reused = _sensor_run(True, between, hook)
    assert reused == _sensor_run(False, between, hook)
    assert reused[0]  # samples were taken
