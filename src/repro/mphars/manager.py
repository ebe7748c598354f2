"""The MP-HARS runtime manager (the paper's Algorithm 3).

MP-HARS manages several self-adaptive applications at once by running
the kernel's MAPE-K loop (:mod:`repro.kernel.mape`) per application and
plugging two multi-application modules into its stages:

* **resource partitioning** — each application owns a disjoint set of
  cores (Algorithm 4 in :mod:`repro.mphars.partition`); a Plan-stage
  candidate filter only lets the search grow an application's core
  counts into the *free* pool, never into a co-runner's cores;
* **interference-aware adaptation** — cluster frequencies are shared,
  so the same filter gates shared-cluster moves by Table 4.3
  (:mod:`repro.mphars.freeze`): an application that is the sole user of
  a cluster controls its frequency freely; otherwise the decision table
  restricts the direction, and decreases set freezing counts on every
  affected application and freeze the cluster.

The Monitor stage carries a per-heartbeat sensor (Algorithm 3 lines
8–15: drain freezing counts, record last-seen rates); the Execute stage
re-applies unconditionally to refresh partitions; finished applications
release their partitions when the engine announces
:class:`~repro.kernel.bus.AppFinished`.

Applications that have not yet adapted (no heartbeats yet — e.g.
blackscholes in its serial input phase) own no cores and run on whatever
cores are currently free; their first adaptation claims a partition.
This is why, in the paper's case 6, a late-starting blackscholes finds
all little cores taken and must settle for big cores (Section 5.2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple

from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HarsPolicy
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.heartbeats.record import Heartbeat
from repro.heartbeats.targets import Satisfaction
from repro.kernel.bus import AppFinished
from repro.kernel.mape import (
    Analyzer,
    CycleContext,
    Executor,
    MapeLoop,
    MapeManager,
    Monitor,
    SearchPlanner,
)
from repro.mphars.appdata import AppData
from repro.mphars.clusterdata import ClusterData
from repro.mphars.freeze import (
    FreezeDecision,
    StateDecision,
    decide,
    worst_satisfaction,
)
from repro.mphars.partition import get_allocatable_core_set, release_all
from repro.platform.cluster import BIG, LITTLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Heartbeats an affected app must observe after a frequency decrease
#: before its measurements are trusted again.
DEFAULT_FREEZE_BEATS = 5

#: Modelled manager CPU cost per estimated candidate state.
DEFAULT_STATE_EVAL_COST_S = 50e-6


class MpHarsManager(MapeManager):
    """Multi-application HARS (Algorithms 3 + 4 + Table 4.3)."""

    def __init__(
        self,
        policy: HarsPolicy,
        perf_estimator: PerformanceEstimator,
        power_estimator: PowerEstimator,
        adapt_every: int = 5,
    ):
        # MP-HARS meters search cost only (poll cost 0), at its own
        # per-candidate cost.
        super().__init__(
            policy,
            perf_estimator,
            power_estimator,
            adapt_every,
            DEFAULT_STATE_EVAL_COST_S,
            poll_cost_s=0.0,
        )
        self._apps: Dict[str, AppData] = {}
        self._last_rate: Dict[str, Optional[float]] = {}
        self._clusters: Dict[str, ClusterData] = {}
        self._released: Dict[str, bool] = {}
        self._targets: Dict[str, object] = {}
        #: Apps evicted by the supervisor — never re-admitted, even
        #: across a controller restart.
        self._removed: Set[str] = set()
        #: Survivors owed a forced adaptation cycle after an eviction
        #: returned cores to the free pool.
        self._repartition_pending: Set[str] = set()
        # The shared partition/freeze bookkeeping is MAPE-K domain
        # knowledge: Plan (candidate filter) and Execute both read it.
        self.knowledge.domain["apps"] = self._apps
        self.knowledge.domain["clusters"] = self._clusters
        self.mape = MapeLoop(
            knowledge=self.knowledge,
            monitor=Monitor(adapt_every, sensors=(self._sense,)),
            analyzer=Analyzer(),
            planner=SearchPlanner(self.policy, constraint=self._constraint),
            executor=Executor(self._execute_plan),
            current_state_fn=self._current_state_of,
            always_execute=True,
            count_adaptations=False,
        )

    # -- Controller hooks -------------------------------------------------------

    def attach(self, sim: "Simulation") -> None:
        super().attach(sim)
        # Finished apps release their partition as soon as the engine
        # announces completion (previously polled every tick).
        sim.bus.subscribe(
            AppFinished, lambda event: self._on_app_finished(sim, event)
        )

    def on_start(self, sim: "Simulation") -> None:
        spec = sim.spec
        self.mape.bind(sim)
        self._clusters.clear()
        self._clusters.update(
            {
                BIG: ClusterData(
                    name=BIG,
                    n_cores=spec.big.n_cores,
                    first_core_id=spec.big.first_core_id,
                    freq_mhz=spec.big.max_freq_mhz,
                ),
                LITTLE: ClusterData(
                    name=LITTLE,
                    n_cores=spec.little.n_cores,
                    first_core_id=spec.little.first_core_id,
                    freq_mhz=spec.little.max_freq_mhz,
                ),
            }
        )
        sim.actuator.set_max_frequencies()
        for app in sim.apps:
            self._apps[app.name] = AppData(
                name=app.name,
                n_big_slots=spec.big.n_cores,
                n_little_slots=spec.little.n_cores,
            )
            self._last_rate[app.name] = None
            self._released[app.name] = False
            self._targets[app.name] = app.target
            sim.actuator.clear_affinities(app)
        self._refresh_unpartitioned_cpusets(sim)

    def on_heartbeat(
        self, sim: "Simulation", app: "SimApp", heartbeat: Heartbeat
    ) -> None:
        if app.name not in self._apps:
            return
        force = app.name in self._repartition_pending
        ctx = self.mape.on_heartbeat(sim, app, heartbeat, force=force)
        if force and ctx is not None:
            # The forced cycle actually ran (Plan executed); a degraded
            # observation leaves the app pending so the next beat
            # retries the repartition.
            self._repartition_pending.discard(app.name)

    def current_allocation(self, app_name: str) -> Optional[Tuple[int, int]]:
        data = self._apps.get(app_name)
        if data is None:
            return None
        return (data.owned_big, data.owned_little)

    # -- MAPE-K stages -----------------------------------------------------------

    def _sense(self, app: "SimApp", heartbeat: Heartbeat) -> None:
        """Per-heartbeat sensor (Algorithm 3 lines 8–15): drain freezing
        counts, refresh flags, record the last-seen rate."""
        data = self._apps.get(app.name)
        if data is None:
            # The app unregistered (finished or was evicted) between the
            # heartbeat being queued and the sensor running.
            return
        data.tick_freezing_counts()
        self._refresh_frozen_flags()
        rate = app.monitor.current_rate()
        if rate is not None and rate > 0:
            # A non-positive rate cannot come from a healthy window; keep
            # the last good measurement rather than poison the Table 4.3
            # co-runner satisfaction checks.
            self._last_rate[app.name] = rate
            data.heartbeat_rate = rate

    def _current_state_of(
        self, sim: "Simulation", app: "SimApp"
    ) -> Optional[SystemState]:
        data = self._apps.get(app.name)
        if data is None:
            # Unregistered mid-cycle: no current point in the search
            # space — the MAPE loop abandons the cycle.
            return None
        return self._current_state(sim, app, data)

    def _constraint(
        self, ctx: CycleContext
    ) -> Callable[[SystemState, SystemState], bool]:
        """Plan-stage candidate filter: partition + Table 4.3 gating.

        Also computes the per-cluster frequency decisions (which may
        unfreeze a drained cluster as a side effect) and stashes them in
        the cycle context for the Execute stage.
        """
        data = self._apps.get(ctx.app.name)
        if data is None:
            # Unregistered between Analyze and Plan: reject the whole
            # neighbourhood; the forced-fallback execute is then a no-op
            # thanks to the same guard in ``_execute_plan``.
            decisions = {BIG: None, LITTLE: None}
            ctx.notes["decisions"] = decisions
            return PartitionFilter(-1, -1, decisions)
        satisfaction = ctx.analysis.satisfaction
        decisions = {
            cluster: self._cluster_decision(cluster, data, satisfaction)
            for cluster in (BIG, LITTLE)
        }
        ctx.notes["decisions"] = decisions
        return PartitionFilter(
            max_big=data.owned_big + self._clusters[BIG].free_count,
            max_little=data.owned_little + self._clusters[LITTLE].free_count,
            decisions=decisions,
        )

    def _execute_plan(
        self, sim: "Simulation", ctx: CycleContext, state: SystemState
    ) -> None:
        app = ctx.app
        data = self._apps.get(app.name)
        if data is None:
            # Unregistered between Plan and Execute: nothing to place.
            return
        self._apply(
            sim, app, data, state, ctx.analysis.satisfaction,
            ctx.notes["decisions"],
        )
        data.adaptation_index = app.log.last.index if app.log.last else -1

    def _current_state(
        self, sim: "Simulation", app: "SimApp", data: AppData
    ) -> SystemState:
        """The app's current point in the search space.

        Owned counts if it has a partition; otherwise the free cores its
        threads currently occupy (first adaptation).
        """
        c_big, c_little = data.owned_big, data.owned_little
        if c_big == 0 and c_little == 0:
            cores = app.cores_in_use()
            c_big = sum(1 for c in cores if sim.spec.big.contains_core(c))
            c_little = len(cores) - c_big
            if c_big == 0 and c_little == 0:
                c_little = min(1, self._clusters[LITTLE].free_count)
                c_big = 0 if c_little else 1
        return SystemState(
            c_big=c_big,
            c_little=c_little,
            f_big_mhz=sim.machine.freq_mhz(BIG),
            f_little_mhz=sim.machine.freq_mhz(LITTLE),
        )

    def _cluster_decision(
        self, cluster: str, data: AppData, satisfaction: Satisfaction
    ) -> Optional[StateDecision]:
        """``checkClusterControllable``: None means unconstrained."""
        others = [
            other
            for name, other in self._apps.items()
            if name != data.name and other.uses_cluster(cluster)
        ]
        if not others:
            return None  # sole (or first) user: full control
        others_sat = worst_satisfaction(
            self._satisfaction_of(other) for other in others
        )
        state_decision, freeze_decision = decide(
            satisfaction, others_sat, self._clusters[cluster].frozen
        )
        if freeze_decision is FreezeDecision.UNFREEZE:
            self._unfreeze(cluster)
        return state_decision

    def _satisfaction_of(self, data: AppData) -> Satisfaction:
        rate = self._last_rate.get(data.name)
        if rate is None:
            # No measurements yet: the co-runner cannot be shown to be
            # hurt, but conservatively treat it as merely achieving so
            # nobody lowers its cluster frequency on no data.
            return Satisfaction.ACHIEVE
        # Late classification against the app's own target happens in the
        # manager because AppData stores only the raw rate.
        target = self._targets[data.name]
        return target.classify(rate)

    def _apply(
        self,
        sim: "Simulation",
        app: "SimApp",
        data: AppData,
        state: SystemState,
        satisfaction: Satisfaction,
        decisions: Dict[str, Optional[StateDecision]],
    ) -> None:
        """``setSysStateAndScheduleThreads`` with partitioned cores."""
        actuator = sim.actuator
        changed = False
        # A forced-fallback "current" state can describe more cores than
        # Algorithm 4 could grant: an unpartitioned app GTS-spread over
        # cores owned by co-runners reports them as its own, and when
        # the candidate filter rejects the whole neighbourhood that
        # state is executed as-is.  Clamp the request to the grantable
        # bound; filter-passing candidates already satisfy it, so this
        # is a no-op on every non-degenerate cycle.
        want_big = min(
            state.c_big, data.owned_big + self._clusters[BIG].free_count
        )
        want_little = min(
            state.c_little,
            data.owned_little + self._clusters[LITTLE].free_count,
        )
        if (want_big, want_little) != (state.c_big, state.c_little):
            if want_big == 0 and want_little == 0:
                # Nothing grantable at all: hold — keep running on
                # whatever free/shared cores GTS gives the app.
                return
            state = SystemState(
                c_big=want_big,
                c_little=want_little,
                f_big_mhz=state.f_big_mhz,
                f_little_mhz=state.f_little_mhz,
            )
        # Core ownership via Algorithm 4.
        if (state.c_big, state.c_little) != (data.owned_big, data.owned_little):
            changed = True
        data.request_counts(state.c_big, state.c_little)
        mask = get_allocatable_core_set(
            data, self._clusters[BIG], self._clusters[LITTLE]
        )

        # Shared frequencies: apply and handle freezing on decreases
        # (Algorithm 3 lines 23–26).
        for cluster, new_freq in (
            (BIG, state.f_big_mhz),
            (LITTLE, state.f_little_mhz),
        ):
            old_freq = sim.machine.freq_mhz(cluster)
            if new_freq == old_freq:
                continue
            if not actuator.set_frequency(cluster, new_freq):
                # Injected DVFS failure: the cluster stayed at old_freq.
                # Keep the bookkeeping honest and do not freeze
                # co-runners for a decrease that never happened.
                self._clusters[cluster].freq_mhz = old_freq
                continue
            self._clusters[cluster].freq_mhz = new_freq
            changed = True
            if new_freq < old_freq:
                self._set_freezing_counts(cluster)

        # Thread placement over the owned cores (Table 3.1 split).
        self._place_owned(sim, app, data, state)
        if changed:
            self.knowledge.adaptations += 1
        actuator.announce(app.name, state, data.owned_big, data.owned_little)
        self._refresh_unpartitioned_cpusets(sim)

    def _place_owned(
        self,
        sim: "Simulation",
        app: "SimApp",
        data: AppData,
        state: SystemState,
    ) -> None:
        """Pin the app's threads over its owned cores (Table 3.1 split).

        Shared with checkpoint restore, which re-pins every surviving
        app from its snapshotted ownership without replaying frequency
        moves."""
        actuator = sim.actuator
        estimate = self.perf_estimator.estimate(state, app.n_threads)
        assignment = estimate.assignment
        big_ids = sorted(
            self._clusters[BIG].global_core_id(slot)
            for slot, used in enumerate(data.use_b_core)
            if used
        )[: assignment.used_big]
        little_ids = sorted(
            self._clusters[LITTLE].global_core_id(slot)
            for slot, used in enumerate(data.use_l_core)
            if used
        )[: assignment.used_little]
        actuator.set_cpuset(app, None)
        actuator.place(
            app, assignment, big_ids, little_ids, self.policy.scheduler
        )
        data.desired_state = state

    # -- freezing ------------------------------------------------------------------

    def _set_freezing_counts(self, cluster: str) -> None:
        """A decrease on ``cluster``: freeze every app using it."""
        for data in self._apps.values():
            if not data.uses_cluster(cluster):
                continue
            if cluster == BIG:
                data.freezing_cnt_b = DEFAULT_FREEZE_BEATS
            else:
                data.freezing_cnt_l = DEFAULT_FREEZE_BEATS
        self._clusters[cluster].frozen = True

    def _unfreeze(self, cluster: str) -> None:
        for data in self._apps.values():
            if cluster == BIG:
                data.freezing_cnt_b = 0
            else:
                data.freezing_cnt_l = 0
        self._clusters[cluster].frozen = False

    def _refresh_frozen_flags(self) -> None:
        """Algorithm 3 lines 12–15 (and auto-unfreeze when drained)."""
        self._clusters[BIG].frozen = any(
            data.freezing_cnt_b > 0 for data in self._apps.values()
        )
        self._clusters[LITTLE].frozen = any(
            data.freezing_cnt_l > 0 for data in self._apps.values()
        )

    # -- partition release --------------------------------------------------------

    def _on_app_finished(self, sim: "Simulation", event: AppFinished) -> None:
        data = self._apps.get(event.app_name)
        if data is None or self._released.get(event.app_name):
            return
        release_all(data, self._clusters[BIG], self._clusters[LITTLE])
        self._released[event.app_name] = True
        self._refresh_unpartitioned_cpusets(sim)

    # -- unpartitioned apps -----------------------------------------------------------

    def _refresh_unpartitioned_cpusets(self, sim: "Simulation") -> None:
        """Apps without a partition run on the currently-free cores."""
        free_ids = frozenset(
            cluster.global_core_id(slot)
            for cluster in self._clusters.values()
            for slot in cluster.free_slots()
        )
        for app in sim.apps:
            data = self._apps.get(app.name)
            if data is None or data.owned_big or data.owned_little:
                continue
            if app.is_done() or app.halted:
                continue
            sim.actuator.set_cpuset(app, free_ids if free_ids else None)

    # -- supervision hooks --------------------------------------------------------

    def unregister_app(self, sim: "Simulation", app_name: str) -> None:
        """Supervisor eviction: drop the app, repartition survivors.

        The evicted app's partition returns to the free pool at once,
        and every survivor is owed a *forced* adaptation cycle on its
        next heartbeat — the freed cores are reabsorbed within one
        adaptation period instead of waiting for a window violation to
        trigger Algorithm 2.
        """
        data = self._apps.pop(app_name, None)
        if data is None:
            return
        self._removed.add(app_name)
        if not self._released.get(app_name):
            release_all(data, self._clusters[BIG], self._clusters[LITTLE])
        self._released[app_name] = True
        self._last_rate.pop(app_name, None)
        self._repartition_pending.update(self._apps)
        self._refresh_unpartitioned_cpusets(sim)

    # -- checkpoint / restore -----------------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        """Store key; one MP-HARS instance manages the whole machine."""
        return "mp-hars"

    def checkpoint(self, now_s: float) -> Dict[str, Any]:
        """Snapshot the shared-knowledge core of MP-HARS: per-app
        partition/freeze records (Table 4.1), per-cluster bookkeeping
        (Table 4.2), last-seen rates, and the fitted power model."""
        apps: Dict[str, Any] = {}
        for name, data in self._apps.items():
            desired = data.desired_state
            apps[name] = {
                "use_b_core": [bool(v) for v in data.use_b_core],
                "use_l_core": [bool(v) for v in data.use_l_core],
                "nprocs_b": data.nprocs_b,
                "nprocs_l": data.nprocs_l,
                "freezing_cnt_b": data.freezing_cnt_b,
                "freezing_cnt_l": data.freezing_cnt_l,
                "dec_big_core_cnt": data.dec_big_core_cnt,
                "dec_little_core_cnt": data.dec_little_core_cnt,
                "adaptation_index": data.adaptation_index,
                "heartbeat_rate": data.heartbeat_rate,
                "desired_state": (
                    [
                        desired.c_big,
                        desired.c_little,
                        desired.f_big_mhz,
                        desired.f_little_mhz,
                    ]
                    if desired is not None
                    else None
                ),
            }
        return self._checkpoint(
            now_s,
            {
                "apps": apps,
                "clusters": {
                    name: {
                        "frozen": cluster.frozen,
                        "free_core": [bool(v) for v in cluster.free_core],
                        "freq_mhz": cluster.freq_mhz,
                    }
                    for name, cluster in self._clusters.items()
                },
                "last_rate": dict(self._last_rate),
                "released": dict(self._released),
                "removed": sorted(self._removed),
            },
        )

    def restore_checkpoint(
        self, sim: "Simulation", payload: Dict[str, Any]
    ) -> None:
        """Warm restore: rebuild partitions and re-pin survivors.

        Frequencies are driven back to the snapshotted per-cluster
        values; apps that finished or were halted *after* the snapshot
        are released rather than resurrected.  Raises
        :class:`~repro.errors.ConfigurationError` on a malformed
        payload — the caller falls back to a cold start.
        """
        from repro.experiments.serialize import (
            power_model_from_dict,
            validate_checkpoint,
        )

        body = validate_checkpoint(payload)
        spec = sim.spec
        try:
            snapshot_apps = body["apps"]
            snapshot_clusters = body["clusters"]
            apps: Dict[str, AppData] = {}
            for name, entry in snapshot_apps.items():
                desired = entry["desired_state"]
                apps[name] = AppData(
                    name=name,
                    n_big_slots=spec.big.n_cores,
                    n_little_slots=spec.little.n_cores,
                    nprocs_b=int(entry["nprocs_b"]),
                    nprocs_l=int(entry["nprocs_l"]),
                    use_b_core=[bool(v) for v in entry["use_b_core"]],
                    use_l_core=[bool(v) for v in entry["use_l_core"]],
                    adaptation_index=int(entry["adaptation_index"]),
                    heartbeat_rate=float(entry["heartbeat_rate"]),
                    freezing_cnt_b=int(entry["freezing_cnt_b"]),
                    freezing_cnt_l=int(entry["freezing_cnt_l"]),
                    dec_big_core_cnt=int(entry["dec_big_core_cnt"]),
                    dec_little_core_cnt=int(entry["dec_little_core_cnt"]),
                    desired_state=(
                        SystemState(*(int(v) for v in desired))
                        if desired is not None
                        else None
                    ),
                )
            clusters: Dict[str, ClusterData] = {}
            for name, entry in snapshot_clusters.items():
                template = self._clusters[name]
                clusters[name] = ClusterData(
                    name=name,
                    n_cores=template.n_cores,
                    first_core_id=template.first_core_id,
                    frozen=bool(entry["frozen"]),
                    free_core=[bool(v) for v in entry["free_core"]],
                    freq_mhz=int(entry["freq_mhz"]),
                )
            last_rate = {
                str(k): (float(v) if v is not None else None)
                for k, v in body["last_rate"].items()
            }
            released = {
                str(k): bool(v) for k, v in body["released"].items()
            }
            removed = {str(v) for v in body.get("removed", [])}
            power_estimator = power_model_from_dict(body["power_model"])
        except (KeyError, ValueError, TypeError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"malformed mp-hars checkpoint: {exc}"
            ) from None
        # Adopt the snapshot.  The domain dicts are mutated in place so
        # the Knowledge references stay valid.
        self._apps.clear()
        self._apps.update(apps)
        self._clusters.clear()
        self._clusters.update(clusters)
        self._last_rate.clear()
        self._last_rate.update(last_rate)
        self._released.clear()
        self._released.update(released)
        self._removed |= removed
        self.power_estimator = power_estimator
        self.mape.restore_counters(body.get("counters") or {})
        # Reconcile against the live system: apps gone since the
        # snapshot release their partition; survivors are re-pinned.
        for cluster, cdata in self._clusters.items():
            if sim.machine.freq_mhz(cluster) != cdata.freq_mhz:
                if not sim.actuator.set_frequency(cluster, cdata.freq_mhz):
                    cdata.freq_mhz = sim.machine.freq_mhz(cluster)
        for app in sim.apps:
            data = self._apps.get(app.name)
            if data is None:
                continue
            if app.is_done() or app.halted:
                if not self._released.get(app.name):
                    release_all(
                        data, self._clusters[BIG], self._clusters[LITTLE]
                    )
                    self._released[app.name] = True
                continue
            if data.desired_state is not None and (
                data.owned_big or data.owned_little
            ):
                self._place_owned(sim, app, data, data.desired_state)
                sim.actuator.announce(
                    app.name,
                    data.desired_state,
                    data.owned_big,
                    data.owned_little,
                )
        self._refresh_unpartitioned_cpusets(sim)

    def _forget_volatile(self, sim: "Simulation") -> None:
        """What dies with the controller process: every Table 4.1/4.2
        record, last-seen rates, and the estimation cache.  The dicts
        are cleared in place — Knowledge.domain aliases them."""
        self._apps.clear()
        self._last_rate.clear()
        self._released.clear()
        self._repartition_pending.clear()
        for cluster in self._clusters.values():
            cluster.frozen = False
            cluster.free_core = [True] * cluster.n_cores
        self.knowledge.estimation.invalidate()

    def _cold_start(self, sim: "Simulation") -> None:
        """Restart with zero knowledge, mid-run: like :meth:`on_start`
        but never re-admitting evicted apps or resurrecting finished
        ones — max frequencies, empty partitions, and a full
        re-convergence."""
        spec = sim.spec
        for name, cluster in self._clusters.items():
            side = spec.big if name == BIG else spec.little
            cluster.freq_mhz = side.max_freq_mhz
        sim.actuator.set_max_frequencies()
        for app in sim.apps:
            if app.name in self._removed:
                continue
            self._apps[app.name] = AppData(
                name=app.name,
                n_big_slots=spec.big.n_cores,
                n_little_slots=spec.little.n_cores,
            )
            self._last_rate[app.name] = None
            # Finished apps own nothing in the fresh bookkeeping, so
            # their (already empty) partition needs no release.
            self._released[app.name] = app.is_done() or app.halted
            self._targets[app.name] = app.target
            if not (app.is_done() or app.halted):
                sim.actuator.clear_affinities(app)
        self._refresh_unpartitioned_cpusets(sim)


def _freq_allowed(
    decision: Optional[StateDecision], candidate_mhz, current_mhz: int
):
    """Whether a candidate's shared-cluster frequency obeys a decision.

    ``None`` means the adapting application is the cluster's sole user
    and may move it freely.  Elementwise: a frequency in MHz gives a
    bool, an array of them a mask.
    """
    if decision is None:
        return True
    if decision is StateDecision.KEEP:
        return candidate_mhz == current_mhz
    if decision is StateDecision.INC:
        return candidate_mhz >= current_mhz
    return candidate_mhz <= current_mhz  # DEC


class PartitionFilter:
    """Plan-stage structural filter: partition caps + Table 4.3 gating.

    Callable with ``(candidate, current)`` for the scalar sweep, and
    mask-capable (``box_mask``) for the vector planner — the partition
    constraint is separable per axis, so the mask is the outer AND of
    two core-count bounds and two per-cluster frequency-direction
    comparisons.  All decision side effects (unfreezing, stashing into
    the cycle notes) happen in ``_constraint`` before construction, so
    both evaluation styles see an immutable filter.
    """

    __slots__ = ("max_big", "max_little", "decisions")

    def __init__(
        self,
        max_big: int,
        max_little: int,
        decisions: Dict[str, Optional[StateDecision]],
    ):
        self.max_big = max_big
        self.max_little = max_little
        self.decisions = decisions

    def __call__(self, candidate: SystemState, cur: SystemState) -> bool:
        if candidate.c_big > self.max_big:
            return False
        if candidate.c_little > self.max_little:
            return False
        if not _freq_allowed(
            self.decisions[BIG], candidate.f_big_mhz, cur.f_big_mhz
        ):
            return False
        return _freq_allowed(
            self.decisions[LITTLE], candidate.f_little_mhz, cur.f_little_mhz
        )

    def box_mask(self, box):
        """Vectorized equivalent over a candidate box (same semantics)."""
        return (
            (box.c_big <= self.max_big)
            & (box.c_little <= self.max_little)
            & _freq_allowed(
                self.decisions[BIG], box.f_big_mhz, box.current.f_big_mhz
            )
            & _freq_allowed(
                self.decisions[LITTLE],
                box.f_little_mhz,
                box.current.f_little_mhz,
            )
        )
