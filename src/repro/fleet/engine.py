"""The fleet's data plane: one structure-of-arrays tick for many nodes.

A :class:`FleetEngine` steps a set of :class:`~repro.fleet.node.FleetNode`
rows — a whole cluster, or a single node — through the tick of
:meth:`repro.sim.engine.Simulation.step` with the node axis vectorized.
It holds the data plane as arrays:

* ``(N, core)`` busy seconds and busy·activity, and the run-queue
  weights GTS balances;
* per-cluster frequency indices, which select rows of precomputed
  speed and power-coefficient tables;
* ``(N, slot)`` thread load, demand and current core, plus each slot's
  allowed big and little cores as bitmasks;
* every lane's FIFO state, in one
  :class:`~repro.fleet.serving.ServingRows`: ``(N, lane)`` queued units
  and ``(N, slot)`` in-service work;
* ``(N, channel)`` energy, the node clocks, the service-velocity EWMA,
  the timed-rate windows and the lanes' deadline-target windows.

Each tick runs fixed phases over all rows, in this order: GTS
placement (the unpinned balancer with its stickiness rule), up to
:attr:`~repro.sim.engine.Simulation.GRANT_ROUNDS` grant rounds — each
one grants, drains the hot lane's FIFO, accounts it and publishes its
heartbeats, then does the same for the base lane — then power, the
sensor, load decay, the clock, and finally the completion join, the
velocity EWMA and the deadline-target update.

Vectorizing along nodes only keeps every node's floats bit-identical to
the scalar tick: rounds, lanes, thread slots and the cores of a power
sum run in the scalar loop's order, and each node's arithmetic is
elementwise (``+ - * /``, ``minimum``, ``maximum``, ``where``).  No
float is ever summed across cores or threads by numpy.  Reductions over
those axes are selections only — ``any`` over booleans and the GTS
``argmin`` over candidate scores, whose first-minimum rule is the scalar
balancer's lowest-core tie-break — so they reorder no arithmetic.

The control plane stays on the node objects: MP-HARS, the actuator,
the machine's DVFS state and affinities, the apps' heartbeat logs and
monitors, SLO windows and the clocks.  The engine calls into it where
the scalar tick did — every heartbeat, published per node mid-round —
plus at two points of its own: it starts a node's controllers when it
adopts the node (:meth:`replace`), and the cluster crashes a node
through :meth:`crash` before the tick.  Before each call it writes back
what the control plane may read: the clock, each thread's current core
and the lanes' target windows.  After each call it reads back what the
control plane may have changed: the frequencies, affinities and
cpusets, and halted apps.  A tick has no per-row prologue, so a node
whose tick would open with a control-plane call (a ``TickStart``
subscriber) is refused at adoption.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.config import RATE_SPAN_S
from repro.heartbeats.monitor import elapsed_span_rate
from repro.heartbeats.targets import recentred_window
from repro.kernel.bus import PowerSample, TickStart
from repro.platform.cluster import BIG, LITTLE
from repro.platform.power import cluster_power_sum, effective_activity_rows
from repro.platform.sensor import CHANNELS
from repro.sched.gts import candidate_split, least_loaded_rows, on_big_table
from repro.sched.load_tracking import prefers_big
from repro.sim.engine import Simulation
from repro.sim.thread import LOAD_TIME_CONSTANT_S
from repro.fleet.serving import ServingRows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.node import Completion, FleetNode

#: EWMA gain of the per-lane service-velocity estimate the routers use.
VELOCITY_ALPHA = 0.05


class FleetEngine:
    """One tick for every node row at once (see the module docstring)."""

    def __init__(self, nodes: Sequence["FleetNode"]):
        if not nodes:
            raise ConfigurationError("a fleet engine needs at least one node")
        first = nodes[0]
        self.config = config = first.config
        self.lane_names = tuple(first.models)
        self.n_rows = n = len(nodes)
        self.n_threads = t = config.lane_threads
        self.n_slots = len(self.lane_names) * t
        self.dt = config.tick_s
        sim = first.sim
        spec = sim.spec
        scheduler = sim.scheduler
        self.up_threshold = scheduler.up_threshold
        self.down_threshold = scheduler.down_threshold
        self.min_weight = scheduler.MIN_TASK_WEIGHT
        self.stickiness = scheduler.STICKINESS
        self.load_decay = math.exp(-self.dt / LOAD_TIME_CONSTANT_S)
        self.load_gain = 1.0 - self.load_decay
        self.n_cores = n_cores = max(sim.machine.core_ids()) + 1
        self.core_ids = np.arange(n_cores)
        #: Per core, whether it is big; ``[-1]`` is for no current core.
        self.on_big = np.array(on_big_table(spec))
        self.freq_index = [
            {f: i for i, f in enumerate(cluster.frequencies_mhz)}
            for cluster in spec.clusters
        ]
        # Operating-point tables, built by the same calls the scalar
        # tick makes, so a table entry is the scalar tick's float.
        power = sim.power_model
        self.dyn_coeff = []
        self.leak_w = []
        for cluster in spec.clusters:
            coeffs = [
                power._coefficients(cluster, f)
                for f in cluster.frequencies_mhz
            ]
            self.dyn_coeff.append(np.array([c[0] for c in coeffs]))
            self.leak_w.append(np.array([c[1] for c in coeffs]))
        self.idle_activity = np.array(
            [spec.cluster_of(c).core_type.idle_activity for c in range(n_cores)]
        )
        self.uncore_w = [cluster.uncore_power_w for cluster in spec.clusters]
        self.power_cores = [
            sim.machine.core_ids(cluster.name) for cluster in spec.clusters
        ]
        self.board_w = spec.board_power_w
        #: [cluster] -> (frequency index, slot) thread speed, and the
        #: switching activity of each slot's lane.
        speeds = []
        activity = []
        for name in self.lane_names:
            model = first.models[name]
            speeds += [
                [
                    [
                        model.thread_speed(cluster.name, cluster.core_type, f)
                        for f in cluster.frequencies_mhz
                    ]
                    for cluster in spec.clusters
                ]
            ] * t
            activity += [model.traits.activity_factor] * t
        self.slot_speed = [
            np.array([slot[k] for slot in speeds]).T for k in range(2)
        ]
        self.slot_activity = np.array(activity)
        self.sample_eps = sim.sensor.boundary_eps

        lanes = len(self.lane_names)
        slots = self.n_slots
        self.nodes: List["FleetNode"] = [None] * n  # type: ignore[list-item]
        self.serving = ServingRows(n, lanes, t)
        self.now = np.zeros(n)
        self.ticks = np.zeros(n, dtype=np.int64)
        self.fidx = np.zeros((n, 2), dtype=np.int64)
        self.load = np.zeros((n, slots))
        self.cur_core = np.full((n, slots), -1, dtype=np.int64)
        #: Per row and slot, the candidate cores when the thread's load
        #: prefers big, and when it prefers little.
        self.if_big = np.zeros((n, slots, n_cores), dtype=bool)
        self.if_little = np.zeros((n, slots, n_cores), dtype=bool)
        self.halted = np.zeros((n, lanes), dtype=bool)
        self.velocity = np.zeros((n, lanes))
        #: Per row and lane, the velocity floor of the wait estimate
        #: (:meth:`FleetNode.est_wait_s`), taken from the node at adoption.
        self.wait_floor = np.zeros((n, lanes))
        self.energy = np.zeros((n, len(CHANNELS)))
        self.elapsed = np.zeros(n)
        self.next_sample = np.zeros(n)
        self.beats = np.zeros((n, lanes), dtype=np.int64)
        self.aged = np.zeros((n, lanes), dtype=np.int64)
        self.aged_head = np.full((n, lanes), np.inf)
        self.tail = np.full((n, lanes), np.nan)
        self.t_min = np.zeros((n, lanes))
        self.t_avg = np.zeros((n, lanes))
        self.t_max = np.zeros((n, lanes))
        self.t_last = np.full((n, lanes), np.nan)
        self.comfort = np.zeros((n, lanes))
        self.tolerance = np.zeros((n, lanes))
        #: Per row and slot: the (affinity, cpuset) objects its
        #: candidate masks were computed from — replaced wholesale on
        #: change, so identity tells whether a mask is stale.
        self._mask_keys: List[List[tuple]] = [[] for _ in range(n)]
        #: allowed core set -> (candidates if big, candidates if little).
        self._candidates: Dict[frozenset, tuple] = {}
        for row, node in enumerate(nodes):
            self.replace(row, node)

    # -- rows ------------------------------------------------------------

    def replace(self, row: int, node: "FleetNode") -> None:
        """Put a freshly built node in ``row`` (engine build and reboot)
        and start its controllers.

        A previous occupant's lane views then alias the new row: its
        owner takes what it needs from it (energy, pending requests)
        before the swap and drops it.
        """
        if node._engine is not None:
            raise SimulationError(f"{node.name} already belongs to an engine")
        if node.config != self.config:
            raise ConfigurationError(
                f"{node.name}: its FleetConfig differs from the engine's"
            )
        for event_type in (PowerSample, TickStart):
            if node.sim.bus.subscriber_count(event_type):
                raise ConfigurationError(
                    f"{node.name}: the fleet engine publishes no "
                    f"{event_type.__name__}"
                )
        self.nodes[row] = node
        node._engine, node._row = self, row
        sim = node.sim
        for lane, name in enumerate(self.lane_names):
            self.serving.adopt(row, lane, node.models[name])
            target = node.targets[name]
            self.velocity[row, lane] = node.nominal_rate(name)
            self.wait_floor[row, lane] = node._floor[name]
            self.comfort[row, lane] = target.comfort_s
            self.tolerance[row, lane] = target.tolerance
            self.t_min[row, lane] = target.min_rate
            self.t_avg[row, lane] = target.avg_rate
            self.t_max[row, lane] = target.max_rate
            last = target.last_tail_s
            self.t_last[row, lane] = np.nan if last is None else last
            tail = node.slo[name].percentile(self.config.percentile)
            self.tail[row, lane] = np.nan if tail is None else tail
            log = node.apps[name].log
            self.beats[row, lane] = len(log)
            self.aged[row, lane] = 0
            self.aged_head[row, lane] = (
                log.beat(0).time_s if len(log) else np.inf
            )
        self.now[row] = sim.clock.now_s
        self.ticks[row] = sim._tick_index
        for slot, thread in enumerate(self._threads(node)):
            self.load[row, slot] = thread.load
            core = thread.current_core
            self.cur_core[row, slot] = -1 if core is None else core
        self.energy[row] = [sim.sensor.energy_j(ch) for ch in CHANNELS]
        self.elapsed[row] = sim.sensor.elapsed_s
        self.next_sample[row] = sim.sensor.next_sample_s
        self._mask_keys[row] = [()] * self.n_slots
        sim.start()
        self._read_back(row)

    def _threads(self, node: "FleetNode"):
        for name in self.lane_names:
            yield from node.apps[name].threads

    def _write_back(self, row: int) -> None:
        """Hand the control plane the row's current clock, thread cores
        and target windows (before any call into it)."""
        node = self.nodes[row]
        sim = node.sim
        sim.clock._now_s = self.now.item(row)
        sim._tick_index = self.ticks.item(row)
        cores = self.cur_core[row].tolist()
        for thread, core in zip(self._threads(node), cores):
            thread.current_core = None if core < 0 else core
        for lane, name in enumerate(self.lane_names):
            target = node.targets[name]
            target.min_rate = self.t_min.item(row, lane)
            target.avg_rate = self.t_avg.item(row, lane)
            target.max_rate = self.t_max.item(row, lane)
            last = self.t_last.item(row, lane)
            target.last_tail_s = None if last != last else last

    def _read_back(self, row: int) -> None:
        """Take back what a control-plane call may have changed:
        frequencies, halted apps, and affinities or cpusets."""
        node = self.nodes[row]
        machine = node.sim.machine
        freqs = machine._freqs
        self.fidx[row, 0] = self.freq_index[0][freqs[BIG]]
        self.fidx[row, 1] = self.freq_index[1][freqs[LITTLE]]
        cores = machine.core_ids()
        keys = self._mask_keys[row]
        slot = 0
        for lane, name in enumerate(self.lane_names):
            app = node.apps[name]
            self.halted[row, lane] = app.halted
            cpuset = app.cpuset
            for thread in app.threads:
                key = keys[slot]
                if (
                    not key
                    or key[0] is not thread.affinity
                    or key[1] is not cpuset
                ):
                    self._set_candidates(
                        row, slot, app.allowed_cores(thread, cores)
                    )
                    keys[slot] = (thread.affinity, cpuset)
                slot += 1

    def _set_candidates(self, row: int, slot: int, allowed) -> None:
        """The cores GTS may pick for a slot, whichever cluster its load
        prefers (:func:`~repro.sched.gts.candidate_split`)."""
        masks = self._candidates.get(allowed)
        if masks is None:
            masks = self._candidates[allowed] = tuple(
                np.isin(self.core_ids, cores)
                for cores in candidate_split(allowed, self.on_big)
            )
        self.if_big[row, slot] = masks[0]
        self.if_little[row, slot] = masks[1]

    def crash(self, row: int) -> None:
        """Crash a row's node before its tick: every lane ends abruptly
        (:meth:`~repro.sim.engine.Simulation.crash_app`)."""
        self._write_back(row)
        node = self.nodes[row]
        for name in self.lane_names:
            node.sim.crash_app(node.apps[name])
        self._read_back(row)

    # -- the tick ----------------------------------------------------------

    def step(
        self, stepping: Optional[Sequence[bool]] = None
    ) -> List[List["Completion"]]:
        """Advance every stepping row one tick; per-row completions.

        ``stepping`` masks rows out (DOWN or EVICTED nodes); a masked
        row's state stays exactly as it is.
        """
        n = self.n_rows
        dt = self.dt
        active = (
            np.ones(n, dtype=bool)
            if stepping is None
            else np.array(stepping, dtype=bool)
        )
        rows = np.arange(n)
        t = self.n_threads
        serving = self.serving
        core_ids = self.core_ids

        # 1. GTS placement: slots in order, each onto its least-loaded
        #    candidate core (the preferred cluster's, when both are
        #    allowed), with a stickiness bonus on its current core.
        placed = (
            (serving.req >= 0) | np.repeat(serving.qlen > 0, t, axis=1)
        ) & np.repeat(active[:, None] & ~self.halted, t, axis=1)
        cur_core = self.cur_core
        if placed.any():
            load = self.load
            desired_big = prefers_big(
                load, self.on_big[cur_core], self.up_threshold, self.down_threshold
            )
            bonus = (cur_core[:, :, None] == core_ids) * self.stickiness
            weight = np.where(load > self.min_weight, load, self.min_weight)
            run_queue = np.zeros((n, self.n_cores))
            for slot in range(self.n_slots):
                slot_wants = placed[:, slot]
                if not slot_wants.any():
                    continue
                allowed = np.where(
                    desired_big[:, slot, None],
                    self.if_big[:, slot],
                    self.if_little[:, slot],
                )
                best = least_loaded_rows(run_queue, allowed, bonus[:, slot])
                picked = np.flatnonzero(slot_wants)
                run_queue[picked, best[picked]] += weight[picked, slot]
                cur_core[picked, slot] = best[picked]

        # 2. Grant rounds: grant, drain and account both lanes, then
        #    publish each lane's heartbeats.  Per-core arrays are flat
        #    (row * cores + core), so a slot's core is one 1-D gather or
        #    scatter.
        n_cores = self.n_cores
        flat = np.where(placed, cur_core, 0) + (rows * n_cores)[:, None]
        slot_big = self.on_big[flat % n_cores]
        remaining = np.full(n * n_cores, dt)
        core_busy = np.zeros(n * n_cores)
        core_ba = np.zeros(n * n_cores)
        thread_busy = np.zeros((n, self.n_slots))
        thread_granted = np.zeros((n, self.n_slots))
        blocked = np.zeros((n, self.n_slots), dtype=bool)
        meta_share = np.zeros((n, self.n_slots))
        meta_speed = np.zeros((n, self.n_slots))
        hungry = placed
        running = placed.any(axis=1)
        end_time = self.now + dt
        #: (row, lane) pairs that emitted heartbeats, in first-emission
        #: order; completions are joined row by row, hot lane first.
        emitted: Dict[Tuple[int, int], bool] = {}
        written: Dict[int, bool] = {}
        for _ in range(Simulation.GRANT_ROUNDS):
            if not running.any():
                break
            members = hungry & running[:, None]
            counts = np.bincount(flat[members], minlength=n * n_cores)
            live_core = (counts > 0) & (remaining > 1e-9)
            granted = members & live_core[flat]
            running &= granted.any(axis=1)
            if not running.any():
                break
            share = remaining[flat] / np.maximum(counts[flat], 1)
            speed = np.where(
                slot_big,
                self.slot_speed[0][self.fidx[:, 0]],
                self.slot_speed[1][self.fidx[:, 1]],
            )
            grants = share * speed
            meta_share = np.where(granted, share, meta_share)
            meta_speed = np.where(granted, speed, meta_speed)
            used, tags_by_lane = serving.drain(grants, granted)
            ok = granted & (meta_speed > 0)
            ran = used / np.where(ok, meta_speed, 1.0)
            busy = np.where(
                ok, np.where(meta_share <= ran, meta_share, ran), 0.0
            )
            # ``ufunc.at`` applies its operands in index order: row by
            # row, slots sharing a core add to it in the scalar loop's
            # (lane, then thread) order.
            cores = flat.ravel()
            np.add.at(core_busy, cores, busy.ravel())
            np.add.at(core_ba, cores, (busy * self.slot_activity).ravel())
            np.subtract.at(remaining, cores, busy.ravel())
            thread_busy += busy
            thread_granted += np.where(granted, meta_share, 0.0)
            satisfied = granted & (used < grants * 0.999)
            blocked |= satisfied
            for lane, tags in enumerate(tags_by_lane):
                for row, row_tags in tags.items():
                    self._publish(
                        row, lane, row_tags, end_time.item(row), written
                    )
                    emitted[row, lane] = True
            hungry = hungry & ~satisfied
            members = hungry & running[:, None]
            counts = np.bincount(flat[members], minlength=n * n_cores)
            running &= (
                ((counts > 0) & (remaining > dt * 0.01))
                .reshape(n, n_cores)
                .any(axis=1)
            )

        granted_pos = thread_granted > 0.0
        ratio = thread_busy / np.where(granted_pos, thread_granted, 1.0)
        demand = np.where(
            granted_pos,
            np.where(blocked, np.where(1.0 <= ratio, 1.0, ratio), 1.0),
            0.0,
        )

        serving.sum_active()

        # 3. Power: each cluster's sum over its cores' clamped activity.
        effective = effective_activity_rows(
            core_busy.reshape(n, n_cores),
            core_ba.reshape(n, n_cores),
            dt,
            self.idle_activity,
        )
        fidx = self.fidx
        big_w, little_w = (
            cluster_power_sum(
                self.uncore_w[k],
                self.dyn_coeff[k][fidx[:, k]],
                self.leak_w[k][fidx[:, k]],
                [effective[:, core] for core in cores],
            )
            for k, cores in enumerate(self.power_cores)
        )
        watts = np.empty((n, len(CHANNELS)))
        watts[:, 0] = big_w
        watts[:, 1] = little_w
        watts[:, 2] = self.board_w
        watts[:, 3] = big_w + little_w + self.board_w

        # 4. Sensor: exact energy, periodic samples on the node object.
        self.energy = np.where(
            active[:, None], self.energy + watts * dt, self.energy
        )
        self.elapsed = np.where(active, self.elapsed + dt, self.elapsed)
        due = active & (self.next_sample <= self.elapsed + self.sample_eps)
        for row in np.flatnonzero(due).tolist():
            self.next_sample[row] = self.nodes[row].sim.sensor.sync(
                dict(zip(CHANNELS, self.energy[row].tolist())),
                self.elapsed.item(row),
                dict(zip(CHANNELS, watts[row].tolist())),
            )

        # 5. Load decay and the clock.
        self.load = np.where(
            active[:, None],
            self.load * self.load_decay + demand * self.load_gain,
            self.load,
        )
        self.now = np.where(active, end_time, self.now)
        self.ticks += active

        # 6. Completions, velocity EWMA and the deadline targets.
        completions: List[List["Completion"]] = [[] for _ in range(n)]
        done_units = np.zeros((n, len(self.lane_names)))
        for row, lane in sorted(emitted):
            node = self.nodes[row]
            name = self.lane_names[lane]
            done_units[row, lane] = node._harvest(name, completions[row])
            log = node.apps[name].log
            self.beats[row, lane] = len(log)
            if self.aged_head[row, lane] == np.inf:
                self.aged_head[row, lane] = log.beat(
                    self.aged.item(row, lane)
                ).time_s
            self.tail[row, lane] = node.slo[name].percentile(
                self.config.percentile
            )
        self.velocity = np.where(
            active[:, None],
            self.velocity
            + VELOCITY_ALPHA * (done_units / dt - self.velocity),
            self.velocity,
        )
        self._update_targets(active)
        return completions

    def _publish(
        self,
        row: int,
        lane: int,
        tags: List[str],
        time_s: float,
        written: Dict[int, bool],
    ) -> None:
        """Emit and publish one lane's heartbeats of one round."""
        if row not in written:  # nothing written back changes mid-tick
            self._write_back(row)
            written[row] = True
        node = self.nodes[row]
        sim = node.sim
        app = node.apps[self.lane_names[lane]]
        for tag in tags:
            sim._deliver_heartbeat(app, app.log.emit(time_s, tag))
        self._read_back(row)

    def _update_targets(self, active: np.ndarray) -> None:
        """Timed completion rate, then :meth:`DeadlineTarget.update`'s
        rule for every stepping row and lane (the shared
        :func:`~repro.heartbeats.monitor.elapsed_span_rate` and
        :func:`~repro.heartbeats.targets.recentred_window`)."""
        rate = elapsed_span_rate(
            self.now[:, None],
            RATE_SPAN_S,
            lambda window_start: self._count_since(window_start, active),
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            t_min, t_avg, t_max = recentred_window(
                rate, self.tail, self.comfort, self.tolerance, self.t_avg
            )
        stepped = active[:, None]
        self.t_last = np.where(stepped, self.tail, self.t_last)
        self.t_min = np.where(stepped, t_min, self.t_min)
        self.t_avg = np.where(stepped, t_avg, self.t_avg)
        self.t_max = np.where(stepped, t_max, self.t_max)

    def _count_since(
        self, window_start: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Beats after ``window_start`` per row and lane: the stepping
        rows' logs age past it first."""
        aging = active[:, None] & (self.aged_head <= window_start)
        for row, lane in zip(*np.nonzero(aging)):
            log = self.nodes[row].apps[self.lane_names[lane]].log
            start = window_start.item(row, 0)
            aged = self.aged.item(row, lane)
            while aged < len(log) and log.beat(aged).time_s <= start:
                aged += 1
            self.aged[row, lane] = aged
            self.aged_head[row, lane] = (
                log.beat(aged).time_s if aged < len(log) else np.inf
            )
        return self.beats - self.aged

    # -- accessors -----------------------------------------------------------

    def est_waits(self, rows: np.ndarray, lane: str) -> List[float]:
        """:meth:`FleetNode.est_wait_s` of every row in ``rows``, in one
        gather: ``(queued + in service) / max(velocity, floor)``
        elementwise, in the scalar formula's operand order."""
        k = self.lane_names.index(lane)
        serving = self.serving
        backlog = serving.queued[rows, k] + serving.active_sum[rows, k]
        velocity = np.maximum(self.velocity[rows, k], self.wait_floor[rows, k])
        return (backlog / velocity).tolist()

    def energy_j(self, row: int, channel: str) -> float:
        if channel not in CHANNELS:
            raise ConfigurationError(f"unknown power channel {channel!r}")
        return self.energy.item(row, CHANNELS.index(channel))

    def elapsed_s(self, row: int) -> float:
        return self.elapsed.item(row)
