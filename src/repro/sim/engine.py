"""Time-stepped HMP simulation engine.

Each tick (default 10 ms of simulated time) the engine:

1. publishes :class:`~repro.kernel.bus.TickStart` on the kernel bus
   (runtime managers adapt here),
2. asks the GTS scheduler model (:class:`~repro.sched.gts.GtsScheduler`,
   the only OS scheduler HARS runs against) for a placement
   (core → threads) of each app's runnable threads,
3. divides each core's tick capacity fairly among its threads and grants
   the resulting work budget to the workload models, in up to
   :attr:`Simulation.GRANT_ROUNDS` rounds,
4. collects per-thread consumption back, emits heartbeats, and publishes
   :class:`~repro.kernel.bus.HeartbeatEmitted` per heartbeat,
5. evaluates the ground-truth power model from per-core utilization,
   feeds the power sensor, and publishes
   :class:`~repro.kernel.bus.PowerSample`,
6. publishes :class:`~repro.kernel.bus.AppFinished` for apps that just
   consumed their last work unit, and
7. updates each thread's load-tracking signal for the GTS model.

Controllers attach through bus subscriptions
(:meth:`~repro.sim.controller.Controller.attach`); the engine never
calls their hooks directly after ``on_start``.

There is one execution path: flat per-thread/per-core arrays,
one thread-speed evaluation per (app, cluster, round), coefficient-cached
power integration and a partition-caching GTS scheduler.  Every
manager's Plan stage runs the tensorized Algorithm 2 through the shared
:class:`~repro.kernel.batchplan.PlanService`, one app per call
(``benchmarks/bench_planner_vectorized.py`` checks it against the scalar
oracle; ``tests/golden`` pins whole-run outputs byte for byte).

Most ticks repeat the previous tick's setting, so the tick reuses what
it can prove unchanged (``docs/modelling.md`` §4, §5 and §9):

* GTS returns its last placement object while its one proof shows a
  full scan would give it, for this tick's loads or for a box of loads
  proven earlier that still holds them
  (:class:`~repro.sched.gts.GtsScheduler`);
* round 1's grant plan is reused when the placement, the cluster
  frequencies and every app's speed factor equal the previous tick's;
* a heartbeat-free tick is replayed from the write-back memo while each
  round runs the saved plan and every app consumes an equal map: the
  saved tick arrays are adopted, and later rounds' plans, the row loop
  and the demand loop are skipped (``advance`` still runs every round);
* the power reading, with the core utilization, is reused when the
  frequencies and both per-core sums (busy seconds, busy·activity) do,
  and the sensor keeps its copy of a reading it is handed again;
  :class:`~repro.kernel.bus.PowerSample` subscribers get one read-only
  view per distinct reading, so they too can tell a repeat by identity;
* the apps are scanned for finished ones only after an advance reports
  ``done``;
* :meth:`Simulation.run` leaps over the steady ticks after a replayed
  one while no handler can run: each leapt tick checks ``until_s`` and
  GTS's proven box, records the kept reading and applies the load
  EWMA, and the models take the advances in one
  :meth:`~repro.workloads.base.WorkloadModel.repeat` (``docs/modelling.md``
  §4, "The steady run").  :meth:`Simulation.step` runs one full tick.

Each key or proof covers every input of its value, so reuse cannot
move a float.  Reused ``grants`` dicts go to the models again, which is
why :meth:`~repro.workloads.base.WorkloadModel.advance` never mutates
them; a tick's arrays are new lists, never written once the tick is
over, so the memos hold them without copying.

The engine is deterministic: all randomness lives inside seeded workload
profiles, and bus dispatch order is fixed by (priority, subscription
order).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultConfig, FaultInjector
from repro.faults.config import APP_RUNAWAY_SPEED_FACTOR
from repro.kernel.actuation import Actuator
from repro.kernel.bus import (
    AppFinished,
    EventBus,
    HeartbeatEmitted,
    LATE,
    PowerSample,
    StateApplied,
    TickStart,
)
from repro.platform.cluster import BIG, LITTLE
from repro.platform.machine import Machine
from repro.platform.power import PowerModel
from repro.platform.sensor import PowerSensor
from repro.platform.spec import PlatformSpec
from repro.sched.gts import GtsScheduler
from repro.sim.clock import SimClock
from repro.sim.controller import Controller
from repro.sim.process import SimApp
from repro.sim.thread import LOAD_TIME_CONSTANT_S
from repro.sim.tracing import TracePoint, TraceRecorder

#: Default tick length (10 ms), far below the 263.8 ms sensor period.
DEFAULT_TICK_S = 0.01

#: Hard cap on ticks per run — guards against runaway configurations.
MAX_TICKS = 2_000_000


class Simulation:
    """One simulated machine running one or more applications.

    ``machine`` holds the cluster frequencies; ``actuator`` is the one
    write-path managers use for them and for thread placement, and with
    ``faults`` set it is where DVFS and affinity writes can fail.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        tick_s: float = DEFAULT_TICK_S,
        faults: Optional[FaultConfig] = None,
    ):
        if tick_s <= 0:
            raise ConfigurationError("tick must be positive")
        self.spec = spec
        self.tick_s = tick_s
        self.machine = Machine(spec)
        self.power_model = PowerModel(spec)
        self.sensor = PowerSensor()
        self.clock = SimClock()
        self.scheduler = GtsScheduler()
        # Managers route their Plan stage through this service, which
        # counts the plans and meters batch sizes; each plan today is a
        # batch of one (``plan_many`` has no caller in ``src/``).
        # Imported here: the planner sits above repro.core, which
        # imports the platform package, which imports this module.
        from repro.kernel.batchplan import PlanService

        self.plan_service = PlanService()
        self.apps: List[SimApp] = []
        self._apps_by_name: Dict[str, SimApp] = {}
        self.controllers: List[Controller] = []
        self.bus = EventBus()
        # Fault injection: with no config (or every rate zero) nothing is
        # installed and the whole stack is bit-identical to a build
        # without the fault layer.
        self.faults = faults
        self.fault_injector: Optional[FaultInjector] = None
        self._lifecycle_enabled = False
        if faults is not None and faults.enabled:
            self.fault_injector = FaultInjector(faults, self.bus)
            if faults.sensor_enabled:
                self.sensor.fault_hook = self.fault_injector.filter_power
            self._lifecycle_enabled = faults.lifecycle_enabled
        #: Apps in a runaway episode (re-escape their pinning each tick).
        self._runaway_apps: List[SimApp] = []
        self.actuator = Actuator(self, faults=self.fault_injector)
        self.trace = TraceRecorder()
        #: Per-core utilization of the most recent tick (0..1), the
        #: signal utilization-driven governors (ondemand) consume.
        self.last_core_utilization: Dict[int, float] = {}
        self._started = False
        self._ticked = False
        self._finished: Set[str] = set()
        #: Whether the next tick must scan the apps for finished ones.
        self._finish_due = True
        #: app name -> (big, little) from the latest ``StateApplied``.
        self._trace_allocations: Dict[str, Tuple[int, int]] = {}
        self.bus.subscribe(StateApplied, self._trace_on_state_applied)
        # LATE: the trace must observe the allocation managers applied
        # *during* the heartbeat it records.
        self.bus.subscribe(
            HeartbeatEmitted, self._trace_on_heartbeat, priority=LATE
        )
        # Lazily-built runtime index (first step).
        self._slots: Optional[List] = None
        #: Per slot, the demand the load EWMA last applied (``None``
        #: before the first tick).  dt is always tick_s, so the EWMA's
        #: decay is a constant.
        self._arr_demand: Optional[List[float]] = None
        self._load_decay = math.exp(-tick_s / LOAD_TIME_CONSTANT_S)
        self._load_gain = 1.0 - self._load_decay
        #: The previous tick's round-1 grant plan and power reading, each
        #: after the inputs it was computed from (see the module doc).
        #: The reading's memo also holds the read-only view of the
        #: reading that PowerSample subscribers share, and the tick's
        #: core utilization.
        self._plan_memo: Optional[tuple] = None
        self._power_memo: Optional[tuple] = None
        #: The last heartbeat-free tick, ``(rounds, arrays)``: per round
        #: its plan and ``(app, entry, consumed)`` per advanced app,
        #: ``entry`` the app's ``(grants, rows)`` in the plan, then the
        #: tick arrays it left (see ``_execute_tick``).
        self._writeback_memo: Optional[tuple] = None
        #: Whether the last tick adopted the write-back memo: the ticks
        #: after it may be leapt (``_leap``).
        self._replayed = False
        # Heartbeat delivery faults: beats whose *delivery* to the bus
        # is stalled or jittered, keyed by the tick they mature on.  The
        # app's log is written at emission time regardless — the fault
        # corrupts the observation channel, not the ground truth.
        self._tick_index = 0
        self._delayed_heartbeats: List[Tuple[int, str, SimApp, object]] = []

    # -- setup ---------------------------------------------------------------

    def add_app(self, app: SimApp) -> SimApp:
        """Register an application before the run starts."""
        if self._started:
            raise SimulationError("cannot add apps after the run started")
        if app.name in self._apps_by_name:
            raise ConfigurationError(f"duplicate app name {app.name!r}")
        self.apps.append(app)
        self._apps_by_name[app.name] = app
        return app

    def add_controller(self, controller: Controller) -> Controller:
        """Register a runtime-system controller (attaches it to the bus)."""
        if self._started:
            raise SimulationError("cannot add controllers after the run started")
        self.controllers.append(controller)
        controller.attach(self)
        return controller

    def app(self, name: str) -> SimApp:
        """Look up a registered application by name (O(1))."""
        try:
            return self._apps_by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown app {name!r}") from None

    # -- run loop --------------------------------------------------------------

    def run(self, until_s: Optional[float] = None) -> float:
        """Run until every app finishes (or ``until_s`` elapses).

        Returns the simulated time at exit.  Apps that never finish
        (e.g. the microbenchmark) require ``until_s``.  Leaps over
        steady ticks (:meth:`_leap`); the result is a :meth:`step` loop's.
        """
        if not self.apps:
            raise SimulationError("no applications registered")
        if until_s is None and any(
            app.model.total_heartbeats() == 0 for app in self.apps
        ):
            raise SimulationError(
                "endless workloads present: run() needs an explicit until_s"
            )
        self.start()
        ticks = 0
        while not self._all_done():
            if until_s is not None and self.clock.now_s >= until_s - 1e-9:
                break
            if self._replayed:
                leapt = self._leap(until_s, MAX_TICKS - ticks)
                if leapt:
                    ticks += leapt
                    continue
            self.step()
            ticks += 1
            if ticks > MAX_TICKS:
                raise SimulationError(
                    f"run exceeded {MAX_TICKS} ticks "
                    f"({self.clock.now_s:.0f}s simulated) — likely stalled"
                )
        return self.clock.now_s

    def start(self) -> None:
        """Start the controllers (``on_start``), once: on the first
        :meth:`run` or :meth:`step`, or when the fleet engine adopts
        the node (:meth:`repro.fleet.engine.FleetEngine.replace`)."""
        if not self._started:
            self._started = True
            for controller in self.controllers:
                controller.on_start(self)

    def step(self) -> None:
        """Advance the simulation by exactly one tick.

        The control-plane prologue runs first: stalled heartbeats
        mature, lifecycle faults roll, and ``TickStart`` goes out.
        """
        if not self._started:
            self.start()
        if self._delayed_heartbeats:
            self._flush_delayed_heartbeats()
        if self._lifecycle_enabled:
            self._inject_lifecycle(self.tick_s)
        # Hot path: probe the handler table directly rather than
        # through subscriber_count() — three calls per tick add up.
        bus = self.bus
        if bus._handlers.get(TickStart):
            bus.publish(TickStart(time_s=self.clock.now_s))
        dt = self.tick_s
        placement = self.scheduler.place(self)
        if self._slots is None:
            self._build_runtime_index()
        touched = self._execute_tick(placement, dt)
        self._integrate_power(touched, dt)
        if self._finish_due:
            self._publish_finished(dt)
        decay = self._load_decay
        gain = self._load_gain
        for thread, demand in zip(self._slots, self._arr_demand):
            thread.load = thread.load * decay + demand * gain

        self.clock.advance(dt)
        self._ticked = True
        self._tick_index += 1

    def _leap(self, until_s: Optional[float], limit: int) -> int:
        """Run the steady ticks that follow a tick which adopted the
        write-back memo, up to ``limit`` of them, and return how many
        (``docs/modelling.md`` §4, "The steady run").

        With no ``TickStart`` or ``PowerSample`` subscriber, no fault
        injector, no delayed beat and no finish due, only a heartbeat
        could run a handler, and the models count the ticks that emit
        none.  So each of those ticks replays the memo: GTS returns its
        anchor while every load stays in its proven box, the plan, the
        arrays and the power reading repeat.  A leapt tick does only
        what such a tick does that moves state: the ``until_s`` check,
        the box check, ``sensor.record``, the load EWMA and the clock;
        the models then take their advances in one :meth:`repeat` each.
        """
        self._replayed = False
        handlers = self.bus._handlers
        saved = self._writeback_memo
        if (
            handlers.get(TickStart)
            or handlers.get(PowerSample)
            or self.fault_injector is not None
            or self._delayed_heartbeats
            or self._finish_due
            or len(saved[0]) != 1  # an app may advance twice a tick
        ):
            return 0
        # The caller may have edited an input between two steps.
        memo = self._plan_memo
        if memo[1] != self.machine._freqs:
            return 0
        for app, factor in zip(self.apps, memo[2]):
            if app.speed_factor != factor:
                return 0
        box = self.scheduler.steady_box(self.apps)
        if box is None:
            return 0
        advanced = saved[0][0][1]
        for app, entry, used in advanced:
            limit = app.model.steady_ticks(entry[0], used, limit)
            if not limit:
                return 0

        bounds = [(row[0], row[3], row[4]) for row in box]
        loads = list(zip(self._slots, self._arr_demand))
        decay = self._load_decay
        gain = self._load_gain
        watts = self._power_memo[3]
        record = self.sensor.record
        clock = self.clock
        dt = self.tick_s
        end = math.inf if until_s is None else until_s - 1e-9
        leapt = 0
        while leapt < limit and not clock.now_s >= end:
            for thread, lo, hi in bounds:
                if not lo <= thread.load <= hi:
                    break
            else:
                record(dt, watts)
                for thread, demand in loads:
                    thread.load = thread.load * decay + demand * gain
                clock.advance(dt)
                leapt += 1
                continue
            break  # a load left its box: the next tick runs in full
        self._tick_index += leapt
        for app, entry, _ in advanced:
            app.model.repeat(entry[0], leapt)
        return leapt

    # -- internals ----------------------------------------------------------------

    def _deliver_heartbeat(self, app: SimApp, heartbeat) -> None:
        """Publish a heartbeat to the bus, possibly stalled or jittered.

        The heartbeat is already in the app's log (ground truth); a
        delivery fault only delays when subscribers *observe* it.
        """
        injector = self.fault_injector
        if injector is not None:
            fault = injector.heartbeat_fault(app.name, heartbeat.time_s)
            if fault is not None:
                kind, delay_ticks = fault
                injector.note_injected(
                    kind,
                    app.name,
                    heartbeat.time_s,
                    f"heartbeat {heartbeat.index} delayed {delay_ticks} ticks",
                )
                self._delayed_heartbeats.append(
                    (self._tick_index + delay_ticks, kind, app, heartbeat)
                )
                return
        self.bus.publish(HeartbeatEmitted(app=app, heartbeat=heartbeat))

    def _flush_delayed_heartbeats(self) -> None:
        """Deliver stalled/jittered heartbeats whose delay has matured.

        Queue order is emission order, so matured beats reach the bus in
        the order they were produced.
        """
        injector = self.fault_injector
        pending: List[Tuple[int, str, SimApp, object]] = []
        for due_tick, kind, app, heartbeat in self._delayed_heartbeats:
            if due_tick > self._tick_index:
                pending.append((due_tick, kind, app, heartbeat))
                continue
            if injector is not None:
                injector.note_recovered(
                    kind,
                    app.name,
                    self.clock.now_s,
                    f"heartbeat {heartbeat.index} delivered",
                )
            self.bus.publish(HeartbeatEmitted(app=app, heartbeat=heartbeat))
        self._delayed_heartbeats = pending

    def _all_done(self) -> bool:
        # Once a tick has run, _publish_finished has scanned every app,
        # so the finished set is authoritative; before the first tick an
        # app may start out already-done, so scan.
        if self._ticked:
            return len(self._finished) == len(self.apps)
        finished = self._finished
        return all(app.name in finished or app.is_done() for app in self.apps)

    def _publish_finished(self, dt: float) -> None:
        """Track and announce apps that completed their work this tick.

        Due on the first tick and after an advance reports ``done``: a
        model completes only inside ``advance``."""
        self._finish_due = False
        end_time = self.clock.now_s + dt
        announce = bool(self.bus._handlers.get(AppFinished))
        for app in self.apps:
            if app.name not in self._finished and app.is_done():
                self._finished.add(app.name)
                if announce:
                    self.bus.publish(
                        AppFinished(app_name=app.name, time_s=end_time)
                    )

    # -- lifecycle faults / supervision -------------------------------------------

    def retire_app(self, name: str) -> None:
        """Permanently remove an app from execution (supervision eviction).

        The app's threads are never scheduled again and the run can
        terminate without it; its unconsumed work units stay unconsumed.
        No ``AppFinished`` is published — the app did not finish, and
        the supervisor announces the eviction itself.
        """
        app = self.app(name)
        app.halted = True
        self._finished.add(name)

    def crash_app(self, app: SimApp) -> None:
        """End an app abruptly, with work left: it halts, counts as
        finished, and ``AppFinished`` goes out at the current time, so
        a manager reacts as to any exit (MP-HARS releases the app's
        partition, Algorithm 4).  The ``app_crash`` lifecycle fault and
        the fleet's node crashes both land here.
        """
        app.halted = True
        self._finished.add(app.name)
        self.bus.publish(
            AppFinished(app_name=app.name, time_s=self.clock.now_s)
        )

    def _inject_lifecycle(self, dt: float) -> None:
        """Roll and apply lifecycle faults for the tick about to run."""
        injector = self.fault_injector
        now = self.clock.now_s
        alive = [
            app.name
            for app in self.apps
            if not app.halted and app.name not in self._finished
        ]
        for kind, target in injector.lifecycle_events(now, dt, alive):
            self._apply_lifecycle(kind, target, now)
        # Runaway apps escape whatever pinning a manager re-applied
        # since the last tick: clear it again before placement.
        for app in self._runaway_apps:
            if app.halted:
                continue
            if app.cpuset is not None:
                app.set_cpuset(None)
            for thread in app.threads:
                if thread.affinity is not None:
                    thread.set_affinity(None)

    def _apply_lifecycle(self, kind: str, target: str, now_s: float) -> None:
        injector = self.fault_injector
        if kind == "controller_restart":
            injector.note_injected(kind, "controller", now_s, "crash+restart")
            for controller in self.controllers:
                restart = getattr(controller, "simulate_restart", None)
                if restart is not None:
                    restart(self)
            return
        app = self._resolve_lifecycle_target(target)
        if app is None:
            return
        if kind == "app_crash":
            injector.note_injected(
                kind, app.name, now_s, "abrupt exit with work left"
            )
            self.crash_app(app)
        elif kind == "app_hang":
            app.halted = True
            injector.note_injected(
                kind, app.name, now_s, "stopped emitting heartbeats"
            )
        elif kind == "app_runaway":
            if not app.runaway:
                app.runaway = True
                app.speed_factor = APP_RUNAWAY_SPEED_FACTOR
                self._runaway_apps.append(app)
                injector.note_injected(
                    kind,
                    app.name,
                    now_s,
                    f"x{app.speed_factor:g} uncontrolled",
                )

    def _resolve_lifecycle_target(self, target: str) -> Optional[SimApp]:
        """``"*"`` hits the first live app; named targets must be live."""
        if target == "*":
            for app in self.apps:
                if not app.halted and app.name not in self._finished:
                    return app
            return None
        app = self._apps_by_name.get(target)
        if app is None or app.halted or app.name in self._finished:
            return None
        return app

    #: Maximum grant/advance rounds per tick.  Round 1 is the fair share;
    #: later rounds redistribute core time a blocking thread left unused
    #: (a real scheduler switches to the runnable co-tenant immediately).
    GRANT_ROUNDS = 3

    # -- tick internals -----------------------------------------------------------

    def _build_runtime_index(self) -> None:
        """Precompute the flat thread/core indexes the hot loop uses.

        Apps and threads are fixed once the run starts, so each thread
        gets a stable *slot* and the hot loop works on per-slot/per-core
        arrays (lists copied from templates) instead of per-tick dicts.
        """
        slots: List = []
        slot_app: List[SimApp] = []
        for app in self.apps:
            for thread in app.threads:
                thread._slot = len(slots)
                slots.append(thread)
                slot_app.append(app)
        self._slots = slots
        self._slot_app = slot_app
        n = len(slots)
        # Templates of the tick arrays (``_open_rounds``).
        self._zero_slots = [0.0] * n
        self._false_slots = [False] * n
        self._zero_cores = [0.0] * (max(self.machine.core_ids()) + 1)
        self._cluster_of_core: Dict[int, object] = {}
        for cluster in self.spec.clusters:
            for core_id in cluster.core_ids:
                self._cluster_of_core[core_id] = cluster

    def _execute_tick(
        self, placement: Dict[int, List], dt: float
    ) -> List[int]:
        """Grant core time, advance workloads, and account busy time.

        Accumulates per-core busy seconds and busy·activity sums (for
        the power model) and per-thread *demand* — the runnable fraction
        of the tick, for load tracking — into the tick arrays.
        A thread that stayed hungry through every round was runnable the
        whole tick (demand 1); a thread that blocked shows the fraction
        of its granted time it actually used.  Returns the ids of cores
        that had threads placed on them.
        """
        # Round 1's plan repeats the previous tick's whenever its inputs
        # do: the placement (``==`` short-circuits on thread identity),
        # the cluster frequencies and every app's speed factor.  Reading
        # the machine's live frequency table is safe: DVFS only changes
        # from heartbeat handlers, which run in the advance phase, never
        # while a round is planned.
        freqs = self.machine._freqs
        memo = self._plan_memo
        plan = None
        if (
            memo is not None
            and (memo[0] is placement or memo[0] == placement)
            and memo[1] == freqs
        ):
            for app, factor in zip(self.apps, memo[2]):
                if app.speed_factor != factor:
                    break
            else:
                plan, touched = memo[3], memo[4]
        end_time = self.clock.now_s + dt
        rounds: List[Tuple[dict, List[tuple]]] = []
        beat = False
        self._replayed = False
        if plan is None:
            hungry, touched = self._open_rounds(placement, dt)
            plan = self._grant_plan(hungry, self._arr_remaining)
            self._plan_memo = (
                placement,
                dict(freqs),
                [app.speed_factor for app in self.apps],
                plan,
                touched,
            )
        else:
            saved = self._writeback_memo
            if saved is not None and saved[0][0][0] is plan:
                replayed = self._replay(saved, end_time)
                if replayed is None:
                    self._replayed = True
                    return touched
                rounds, beat = replayed
            hungry, _ = self._open_rounds(placement, dt)
            # A replay that diverged: write back its rounds; each but
            # the last left a hungry thread behind (the saved tick went
            # on).
            for _, earlier in rounds[:-1]:
                self._write_back(earlier, hungry, dt)
            if rounds and not self._write_back(rounds[-1][1], hungry, dt):
                plan = None

        while plan is not None and len(rounds) < self.GRANT_ROUNDS:
            if rounds:
                plan = self._grant_plan(hungry, self._arr_remaining)
            if not plan:
                break
            advanced = self._advance_round(plan, end_time)
            if advanced[1]:
                beat = True
            rounds.append((plan, advanced[0]))
            if not self._write_back(advanced[0], hungry, dt):
                break

        thread_busy = self._arr_thread_busy
        blocked = self._arr_blocked
        demand = self._arr_demand
        for slot, granted_s in enumerate(self._arr_thread_granted):
            if granted_s > 0.0:
                if blocked[slot]:
                    # Blocked threads were runnable only while they used CPU.
                    used = thread_busy[slot] / granted_s
                    demand[slot] = 1.0 if 1.0 <= used else used
                else:
                    demand[slot] = 1.0  # hungry through every round: runnable
        if rounds and not beat:
            # The maps are copied, as a model owns the maps it returned;
            # the arrays are not, as no tick writes them again.
            self._writeback_memo = (
                [
                    (plan, [(app, entry, dict(used)) for app, entry, used in done])
                    for plan, done in rounds
                ],
                (
                    self._arr_core_busy,
                    self._arr_core_ba,
                    thread_busy,
                    self._arr_thread_granted,
                    blocked,
                    self._arr_remaining,
                    demand,
                ),
            )
        return touched

    def _replay(self, saved: tuple, end_time: float) -> Optional[tuple]:
        """Advance the saved heartbeat-free tick's rounds with their
        saved plans while every app consumes an equal map: the rounds
        so far then wrote the same sums, so the next round's plan, and
        whether there is one, are the saved tick's too
        (``docs/modelling.md`` §4).  Once every round matched, adopts
        the saved tick arrays and returns ``None``.

        Otherwise finishes the round that diverged (every app still
        advances, its heartbeats go out) and returns ``(rounds, beat)``
        for the caller to write back and go on from.
        """
        replay = saved[0]
        for round_index, (plan, done) in enumerate(replay):
            for index, (app, entry, used) in enumerate(done):
                result = app.model.advance(entry[0])
                if result.heartbeats or result.done or result.consumed != used:
                    advanced = done[:index]
                    advanced.append((app, entry, result.consumed))
                    beat = self._emit(app, result, end_time)
                    rest = self._advance_round(
                        plan,
                        end_time,
                        [(app, entry) for app, entry, _ in done[index + 1 :]],
                    )
                    advanced += rest[0]
                    rounds = replay[:round_index]
                    rounds.append((plan, advanced))
                    return rounds, beat or rest[1]
        (
            self._arr_core_busy,
            self._arr_core_ba,
            self._arr_thread_busy,
            self._arr_thread_granted,
            self._arr_blocked,
            self._arr_remaining,
            self._arr_demand,
        ) = saved[1]
        return None

    def _advance_round(
        self, plan: dict, end_time: float, only: Optional[List[tuple]] = None
    ) -> Tuple[List[tuple], bool]:
        """Advance every app with a grant in ``plan`` (or only the
        ``(app, entry)`` pairs given), in app order, delivering
        heartbeats as they come.  Returns ``(app, entry, consumed)`` per
        app and whether any beat.

        Every app advances, and its heartbeats go out, before any row of
        the round is written back: the write-back touches only this
        engine's tick arrays, which no handler reads.
        """
        if only is None:
            only = [
                (app, entry)
                for app in self.apps
                if (entry := plan.get(app.name)) is not None
            ]
        advanced: List[tuple] = []
        beat = False
        for app, entry in only:
            result = app.model.advance(entry[0])
            advanced.append((app, entry, result.consumed))
            if result.heartbeats or result.done:
                beat = self._emit(app, result, end_time) or beat
        return advanced, beat

    def _emit(self, app: SimApp, result, end_time: float) -> bool:
        """Log and deliver ``result``'s heartbeats; note a finished
        model.  Returns whether it beat."""
        if result.done:
            self._finish_due = True
        tags = result.heartbeat_tags
        for i in range(result.heartbeats):
            heartbeat = app.log.emit(end_time, tags[i] if i < len(tags) else "")
            self._deliver_heartbeat(app, heartbeat)
        return result.heartbeats > 0

    def _open_rounds(
        self, placement: Dict[int, List], dt: float
    ) -> Tuple[Dict[int, List], List[int]]:
        """Start the tick arrays afresh and give each placed core the
        whole tick: returns the hungry threads per core, and the placed
        cores.

        The arrays are new lists, copied from preallocated zero
        templates (a C-level copy): once its tick is over, no tick
        writes an array again, so the memos keep the lists themselves.
        """
        self._arr_thread_busy = self._zero_slots[:]
        self._arr_thread_granted = self._zero_slots[:]
        self._arr_blocked = self._false_slots[:]
        self._arr_demand = self._zero_slots[:]
        self._arr_core_busy = self._zero_cores[:]
        self._arr_core_ba = self._zero_cores[:]
        self._arr_remaining = remaining = self._zero_cores[:]
        touched: List[int] = []
        hungry: Dict[int, List] = {}
        for core_id, threads in placement.items():
            if threads:
                remaining[core_id] = dt
                # The placement is never mutated (GTS hands the same dict
                # to every tick its anchor proves), so its lists can be
                # adopted without copying (rounds *replace* hungry
                # entries, never edit them).
                hungry[core_id] = threads
                touched.append(core_id)
        return hungry, touched

    def _write_back(
        self, advanced: List[tuple], hungry: Dict[int, List], dt: float
    ) -> bool:
        """Account one round's consumption, ``(app, entry, consumed)``
        per advanced app, and drop the threads that blocked from
        ``hungry``.  Returns whether a hungry core has time left (worth
        another round)."""
        core_busy = self._arr_core_busy
        core_ba = self._arr_core_ba
        thread_busy = self._arr_thread_busy
        thread_granted = self._arr_thread_granted
        remaining = self._arr_remaining
        blocked = self._arr_blocked
        satisfied: Set[int] = set()
        for app, entry, consumed_map in advanced:
            activity_factor = app.model.traits.activity_factor
            for local_index, slot, share_s, speed, core_id, granted in entry[1]:
                consumed = consumed_map.get(local_index, 0.0)
                if speed > 0:
                    used = consumed / speed
                    busy_s = share_s if share_s <= used else used
                else:
                    busy_s = 0.0
                core_busy[core_id] += busy_s
                core_ba[core_id] += busy_s * activity_factor
                thread_busy[slot] += busy_s
                thread_granted[slot] += share_s
                remaining[core_id] -= busy_s
                if consumed < granted * 0.999:
                    # The thread blocked (barrier, empty/full queue):
                    # it takes no further time this tick.
                    satisfied.add(slot)
                    blocked[slot] = True

        threshold = dt * 0.01
        still_hungry = False
        if satisfied:
            for core_id in list(hungry):
                hungry[core_id] = [
                    t for t in hungry[core_id] if t._slot not in satisfied
                ]
                if hungry[core_id] and remaining[core_id] > threshold:
                    still_hungry = True
        else:
            for core_id, threads in hungry.items():
                if threads and remaining[core_id] > threshold:
                    still_hungry = True
                    break
        return still_hungry

    def _grant_plan(
        self, hungry: Dict[int, List], remaining: List[float]
    ) -> Dict[str, Tuple[Dict[int, float], List[tuple]]]:
        """One grant round: per app with a grant, the ``grants`` dict its
        model advances on, and one row per granted thread,
        ``(local_index, slot, share_s, speed, core_id, granted)``, in
        the dict's order.  Each hungry core's remaining time is split
        fairly among its threads."""
        slot_app = self._slot_app
        cluster_of_core = self._cluster_of_core
        freqs = self.machine._freqs
        # One thread-speed evaluation per (app, cluster): neither the
        # frequency nor the model phase can change inside a round.
        speed_memo: Dict[str, Dict[str, float]] = {}
        plan: Dict[str, Tuple[Dict[int, float], List[tuple]]] = {}
        for core_id, threads in hungry.items():
            if not threads or remaining[core_id] <= 1e-9:
                continue
            cluster = cluster_of_core[core_id]
            cname = cluster.name
            cluster_memo = speed_memo.get(cname)
            if cluster_memo is None:
                cluster_memo = speed_memo[cname] = {}
            share_s = remaining[core_id] / len(threads)
            for thread in threads:
                slot = thread._slot
                app = slot_app[slot]
                speed = cluster_memo.get(app.name)
                if speed is None:
                    speed = app.model.thread_speed(
                        cname, cluster.core_type, freqs[cname]
                    )
                    # Gated on != 1.0 so fault-free runs never
                    # multiply (bit-identity with the pre-fault build).
                    if app.speed_factor != 1.0:
                        speed *= app.speed_factor
                    cluster_memo[app.name] = speed
                entry = plan.get(app.name)
                if entry is None:
                    entry = plan[app.name] = ({}, [])
                granted = share_s * speed
                entry[0][thread.local_index] = granted
                entry[1].append(
                    (thread.local_index, slot, share_s, speed, core_id, granted)
                )
        return plan

    def _integrate_power(self, touched: List[int], dt: float) -> None:
        core_busy = self._arr_core_busy
        core_ba = self._arr_core_ba
        # The reading repeats the previous tick's whenever its inputs
        # do: the frequencies and both per-core sums (dt is the fixed
        # tick length).  So does the utilization while the placed cores
        # are the same list too; no reader edits the dict.
        freqs = self.machine._freqs
        memo = self._power_memo
        if (
            memo is not None
            and memo[0] == freqs
            and (memo[1] is core_busy or memo[1] == core_busy)
            and (memo[2] is core_ba or memo[2] == core_ba)
        ):
            watts = memo[3]
            if memo[5] is not touched:
                self._power_memo = memo = memo[:5] + (
                    touched,
                    self._utilization(touched, core_busy, dt),
                )
        else:
            watts = self.power_model.platform_power_arrays(
                self.machine, core_busy, core_ba, dt
            )
            self._power_memo = memo = (
                dict(freqs),
                core_busy,
                core_ba,
                watts,
                MappingProxyType(watts),
                touched,
                self._utilization(touched, core_busy, dt),
            )
        self.last_core_utilization = memo[6]
        self.sensor.record(dt, watts)
        bus = self.bus
        if bus._handlers.get(PowerSample):
            # Subscribers share one read-only view of the reading for as
            # long as it repeats, so a subscriber can tell a repeat by
            # identity (the ACP session encodes each reading once).
            bus.publish(
                PowerSample(time_s=self.clock.now_s + dt, watts=memo[4])
            )

    @staticmethod
    def _utilization(
        touched: List[int], core_busy: List[float], dt: float
    ) -> Dict[int, float]:
        return {
            core_id: util if (util := core_busy[core_id] / dt) < 1.0 else 1.0
            for core_id in touched
        }

    # -- trace subscription -------------------------------------------------------

    def _trace_on_state_applied(self, event: StateApplied) -> None:
        self._trace_allocations[event.app_name] = (
            event.big_cores,
            event.little_cores,
        )

    def _trace_on_heartbeat(self, event: HeartbeatEmitted) -> None:
        app = event.app
        allocation = self._trace_allocations.get(app.name)
        if allocation is None:
            for controller in self.controllers:
                allocation = controller.current_allocation(app.name)
                if allocation is not None:
                    break
        if allocation is None:
            cores = app.cores_in_use()
            n_big = sum(1 for c in cores if self.spec.big.contains_core(c))
            allocation = (n_big, len(cores) - n_big)
        heartbeat = event.heartbeat
        self.trace.record(
            app.name,
            TracePoint(
                time_s=heartbeat.time_s,
                hb_index=heartbeat.index,
                rate=app.monitor.current_rate(),
                big_cores=allocation[0],
                little_cores=allocation[1],
                big_freq_mhz=self.machine.freq_mhz(BIG),
                little_freq_mhz=self.machine.freq_mhz(LITTLE),
            ),
        )
