"""Time-stepped HMP simulation engine.

Each tick (default 10 ms of simulated time) the engine:

1. publishes :class:`~repro.kernel.bus.TickStart` on the kernel bus
   (runtime managers adapt here),
2. asks the GTS scheduler model (:class:`~repro.sched.gts.GtsScheduler`,
   the only OS scheduler HARS runs against) for a placement
   (core → threads),
3. divides each core's tick capacity fairly among its threads and grants
   the resulting work budget to the workload models,
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

There is one execution path: preallocated per-thread/per-core arrays,
one thread-speed evaluation per (app, cluster, round), coefficient-cached
power integration, a partition-caching GTS scheduler, and a shared
:class:`~repro.kernel.batchplan.PlanService` through which every
manager's Plan stage runs the tensorized Algorithm 2
(``benchmarks/bench_planner_vectorized.py`` checks it against the scalar
oracle; ``tests/golden`` pins whole-run outputs byte for byte).

The engine is deterministic: all randomness lives inside seeded workload
profiles, and bus dispatch order is fixed by (priority, subscription
order).
"""

from __future__ import annotations

import math
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
        # Managers route their Plan stage through this service (shared
        # batch metering and multi-app plan_many batches).  Imported
        # here: the planner sits above repro.core, which imports the
        # platform package, which imports this module.
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
        (e.g. the microbenchmark) require ``until_s``.
        """
        if not self.apps:
            raise SimulationError("no applications registered")
        if until_s is None and any(
            app.model.total_heartbeats() == 0 for app in self.apps
        ):
            raise SimulationError(
                "endless workloads present: run() needs an explicit until_s"
            )
        if not self._started:
            self._started = True
            for controller in self.controllers:
                controller.on_start(self)
        ticks = 0
        while not self._all_done():
            if until_s is not None and self.clock.now_s >= until_s - 1e-9:
                break
            self.step()
            ticks += 1
            if ticks > MAX_TICKS:
                raise SimulationError(
                    f"run exceeded {MAX_TICKS} ticks "
                    f"({self.clock.now_s:.0f}s simulated) — likely stalled"
                )
        return self.clock.now_s

    def step(self) -> None:
        """Advance the simulation by exactly one tick."""
        self.begin_tick()
        dt = self.tick_s
        placement = self.scheduler.place(self)
        if self._slots is None:
            self._build_runtime_index()
        touched = self._execute_tick(placement, dt)
        self._integrate_power(touched, dt)
        self._publish_finished(dt)
        decay = self._load_decay
        gain = self._load_gain
        demand = self._arr_demand
        for slot, thread in enumerate(self._slots):
            thread.load = thread.load * decay + demand[slot] * gain

        self.clock.advance(dt)
        self._ticked = True
        self._tick_index += 1

    def begin_tick(self) -> None:
        """The control-plane prologue of a tick: controllers start on
        the first one, stalled heartbeats mature, lifecycle faults roll,
        and ``TickStart`` goes out.  :meth:`step` opens with it; the
        fleet engine calls it for the nodes it ticks."""
        if not self._started:
            self._started = True
            for controller in self.controllers:
                controller.on_start(self)
        if self._delayed_heartbeats:
            self._flush_delayed_heartbeats()
        if self._lifecycle_enabled:
            self._inject_lifecycle(self.tick_s)
        # Hot path: probe the handler table directly rather than
        # through subscriber_count() — three calls per tick add up.
        bus = self.bus
        if bus._handlers.get(TickStart):
            bus.publish(TickStart(time_s=self.clock.now_s))

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
        """Track and announce apps that completed their work this tick."""
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
            app.halted = True
            self._finished.add(app.name)
            injector.note_injected(
                kind, app.name, now_s, "abrupt exit with work left"
            )
            if self.bus._handlers.get(AppFinished):
                self.bus.publish(
                    AppFinished(app_name=app.name, time_s=now_s)
                )
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
        gets a stable *slot* and the hot loop works on preallocated
        per-slot/per-core arrays instead of per-tick dicts.
        """
        slots: List = []
        slot_app: List[SimApp] = []
        slot_base: Dict[str, int] = {}
        for app in self.apps:
            slot_base[app.name] = len(slots)
            for thread in app.threads:
                thread._slot = len(slots)
                slots.append(thread)
                slot_app.append(app)
        self._slots = slots
        self._slot_app = slot_app
        self._slot_base = slot_base
        n = len(slots)
        self._zero_slots = [0.0] * n
        self._false_slots = [False] * n
        self._arr_thread_busy = [0.0] * n
        self._arr_thread_granted = [0.0] * n
        self._arr_blocked = [False] * n
        self._arr_demand = [0.0] * n
        self._arr_meta_share = [0.0] * n
        self._arr_meta_speed = [0.0] * n
        self._arr_meta_core = [0] * n
        n_cores = max(self.machine.core_ids()) + 1
        self._n_core_slots = n_cores
        self._zero_cores = [0.0] * n_cores
        self._arr_core_busy = [0.0] * n_cores
        self._arr_core_ba = [0.0] * n_cores
        self._arr_remaining = [0.0] * n_cores
        self._cluster_of_core: Dict[int, object] = {}
        for cluster in self.spec.clusters:
            for core_id in cluster.core_ids:
                self._cluster_of_core[core_id] = cluster
        # dt is always tick_s, so the load-tracking decay is a constant.
        self._load_decay = math.exp(-self.tick_s / LOAD_TIME_CONSTANT_S)
        self._load_gain = 1.0 - self._load_decay

    def _execute_tick(
        self, placement: Dict[int, List], dt: float
    ) -> List[int]:
        """Grant core time, advance workloads, and account busy time.

        Accumulates per-core busy seconds and busy·activity sums (for
        the power model) and per-thread *demand* — the runnable fraction
        of the tick, for load tracking — into the preallocated arrays.
        A thread that stayed hungry through every round was runnable the
        whole tick (demand 1); a thread that blocked shows the fraction
        of its granted time it actually used.  Returns the ids of cores
        that had threads placed on them.
        """
        slots = self._slots
        thread_busy = self._arr_thread_busy
        thread_granted = self._arr_thread_granted
        blocked = self._arr_blocked
        demand = self._arr_demand
        # Slice-assign from preallocated zero templates: a C-level copy
        # instead of a Python loop.
        thread_busy[:] = self._zero_slots
        thread_granted[:] = self._zero_slots
        blocked[:] = self._false_slots
        demand[:] = self._zero_slots
        core_busy = self._arr_core_busy
        core_ba = self._arr_core_ba
        remaining = self._arr_remaining
        core_busy[:] = self._zero_cores
        core_ba[:] = self._zero_cores
        end_time = self.clock.now_s + dt
        touched: List[int] = []
        hungry: Dict[int, List] = {}
        for core_id, threads in placement.items():
            if threads:
                remaining[core_id] = dt
                # The placement dict is built fresh each tick and never
                # mutated, so its lists can be adopted without copying
                # (rounds *replace* hungry entries, never edit them).
                hungry[core_id] = threads
                touched.append(core_id)

        meta_share = self._arr_meta_share
        meta_speed = self._arr_meta_speed
        meta_core = self._arr_meta_core
        slot_app = self._slot_app
        slot_base = self._slot_base
        cluster_of_core = self._cluster_of_core
        machine = self.machine
        bus = self.bus

        # Reading the machine's live frequency table is safe: DVFS only
        # changes from heartbeat handlers, which run in the advance
        # phase — never between the grant reads of one round.
        freqs = machine._freqs
        for _ in range(self.GRANT_ROUNDS):
            # One thread-speed evaluation per (app, cluster) per round:
            # neither the frequency nor the model phase can change
            # inside the grant phase.
            speed_memo: Dict[str, Dict[str, float]] = {}
            grants: Dict[str, Dict[int, float]] = {}
            for core_id, threads in hungry.items():
                if not threads or remaining[core_id] <= 1e-9:
                    continue
                cluster = cluster_of_core[core_id]
                cname = cluster.name
                freq = freqs[cname]
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
                            cname, cluster.core_type, freq
                        )
                        # Gated on != 1.0 so fault-free runs never
                        # multiply (bit-identity with the pre-fault build).
                        if app.speed_factor != 1.0:
                            speed *= app.speed_factor
                        cluster_memo[app.name] = speed
                    app_grants = grants.get(app.name)
                    if app_grants is None:
                        app_grants = grants[app.name] = {}
                    app_grants[thread.local_index] = share_s * speed
                    meta_share[slot] = share_s
                    meta_speed[slot] = speed
                    meta_core[slot] = core_id
            if not grants:
                break

            satisfied: Set[int] = set()
            for app in self.apps:
                app_grants = grants.get(app.name)
                if not app_grants:
                    continue
                result = app.model.advance(app_grants)
                base = slot_base[app.name]
                consumed_map = result.consumed
                activity_factor = app.model.traits.activity_factor
                for local_index, granted in app_grants.items():
                    consumed = consumed_map.get(local_index, 0.0)
                    slot = base + local_index
                    share_s = meta_share[slot]
                    speed = meta_speed[slot]
                    core_id = meta_core[slot]
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
                for i in range(result.heartbeats):
                    tag = (
                        result.heartbeat_tags[i]
                        if i < len(result.heartbeat_tags)
                        else ""
                    )
                    heartbeat = app.log.emit(end_time, tag)
                    self._deliver_heartbeat(app, heartbeat)

            still_hungry = False
            if satisfied:
                for core_id in list(hungry):
                    hungry[core_id] = [
                        t for t in hungry[core_id] if t._slot not in satisfied
                    ]
                    if hungry[core_id] and remaining[core_id] > dt * 0.01:
                        still_hungry = True
            else:
                threshold = dt * 0.01
                for core_id, threads in hungry.items():
                    if threads and remaining[core_id] > threshold:
                        still_hungry = True
                        break
            if not still_hungry:
                break

        for slot in range(len(slots)):
            granted_s = thread_granted[slot]
            if granted_s > 0.0:
                if blocked[slot]:
                    # Blocked threads were runnable only while they used CPU.
                    used = thread_busy[slot] / granted_s
                    demand[slot] = 1.0 if 1.0 <= used else used
                else:
                    demand[slot] = 1.0  # hungry through every round: runnable
        return touched

    def _integrate_power(self, touched: List[int], dt: float) -> None:
        core_busy = self._arr_core_busy
        self.last_core_utilization = {
            core_id: util if (util := core_busy[core_id] / dt) < 1.0 else 1.0
            for core_id in touched
        }
        watts = self.power_model.platform_power_arrays(
            self.machine, core_busy, self._arr_core_ba, dt
        )
        self.sensor.record(dt, watts)
        if self.bus.subscriber_count(PowerSample):
            self.bus.publish(
                PowerSample(time_s=self.clock.now_s + dt, watts=watts)
            )

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
