"""The static optimal (SO) version.

"The static optimal version runs with the optimal number of cores and
frequency level determined by the offline simulations … It [is] also
scheduled by the Linux HMP scheduler" (Section 5.1.1).

The offline sweep here is an *oracle*: it evaluates every system state
with the ground-truth workload traits and power model (unlike HARS's
online estimators, which assume r0 = 1.5) plus an analytic model of how
GTS places threads within a restricted cpuset.  That mirrors the paper's
setup, where the offline simulation observes the real platform and
therefore does not inherit HARS's r0 misprediction — which is exactly why
SO beats HARS on blackscholes.

GTS placement model (matches :class:`repro.sched.gts.GtsScheduler` for
CPU-hungry threads): if the cpuset contains any big core, every hungry
thread sticks to the big cores and time-shares them; little cores in the
cpuset idle.  Only a big-free cpuset uses the little cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.core.state import SystemState
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG, LITTLE
from repro.platform.machine import Machine
from repro.platform.power import CoreActivity, PowerModel
from repro.platform.spec import PlatformSpec
from repro.platform.topology import first_n
from repro.sim.controller import Controller
from repro.workloads.base import WorkloadModel
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.pipeline import PipelineWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class OracleEvaluation:
    """Ground-truth prediction for one state."""

    state: SystemState
    rate: float
    watts: float
    norm_perf: float

    @property
    def perf_per_power(self) -> float:
        return self.norm_perf / self.watts


def _mean_unit_work(model: WorkloadModel) -> float:
    if isinstance(model, DataParallelWorkload):
        return model.profile.mean_work(model.n_units)
    raise ConfigurationError(f"{model.name}: not a data-parallel workload")


def _gts_cluster(state: SystemState) -> Tuple[str, int, int]:
    """(cluster hungry threads land on, cores there, freq) under GTS."""
    if state.c_big > 0:
        return BIG, state.c_big, state.f_big_mhz
    return LITTLE, state.c_little, state.f_little_mhz


def _pipeline_rate(model: PipelineWorkload, cores: int, speed: float) -> float:
    """Steady-state pipeline throughput with fair core time-sharing.

    Threads of starved stages stop demanding CPU, which grows the fair
    share of the busy stages' threads, which changes which stage binds —
    so the throughput is a fixed point.  Iterate: given throughput ``X``,
    stage utilization is ``u_s = X·c_s / (n_s·share·S)`` and the fair
    per-thread share is ``min(1, cores / Σ_s n_s·u_s)`` of a core.
    """
    shares = [1.0 for _ in model.stages]  # per-thread core fraction
    rate = 0.0
    for _ in range(50):
        per_stage = [
            stage.n_threads * shares[s] * speed / stage.cost_per_item
            for s, stage in enumerate(model.stages)
        ]
        new_rate = min(per_stage)
        demand = sum(
            stage.n_threads
            * min(1.0, new_rate * stage.cost_per_item
                  / max(1e-12, stage.n_threads * shares[s] * speed))
            for s, stage in enumerate(model.stages)
        )
        share = min(1.0, cores / max(demand, 1e-12))
        shares = [share] * len(model.stages)
        if abs(new_rate - rate) < 1e-9:
            break
        rate = new_rate
    return rate


def oracle_rate(
    spec: PlatformSpec, model: WorkloadModel, state: SystemState
) -> float:
    """Ground-truth steady-state heartbeat rate under GTS at ``state``."""
    cluster_name, cores, freq = _gts_cluster(state)
    cluster = spec.cluster(cluster_name)
    speed = model.thread_speed(cluster_name, cluster.core_type, freq)
    if isinstance(model, PipelineWorkload):
        return _pipeline_rate(model, cores, speed)
    unit_work = _mean_unit_work(model)
    return min(model.n_threads, cores) * speed / unit_work


def oracle_power(
    spec: PlatformSpec, model: WorkloadModel, state: SystemState
) -> float:
    """Ground-truth average power under GTS at ``state``."""
    cluster_name, cores, freq = _gts_cluster(state)
    machine = Machine(spec)
    machine.set_freq_mhz(BIG, state.f_big_mhz)
    machine.set_freq_mhz(LITTLE, state.f_little_mhz)
    used = min(model.n_threads, cores)
    if isinstance(model, PipelineWorkload):
        rate = oracle_rate(spec, model, state)
        cluster = spec.cluster(cluster_name)
        speed = model.thread_speed(cluster_name, cluster.core_type, freq)
        total_cost = sum(stage.cost_per_item for stage in model.stages)
        utilization = min(1.0, rate * total_cost / (speed * used))
    else:
        utilization = 1.0  # equal-speed barrier threads stay busy
    core_ids = first_n(spec, cluster_name, used)
    activities: Dict[int, CoreActivity] = {
        core_id: CoreActivity(
            utilization=utilization,
            activity_factor=model.traits.activity_factor,
        )
        for core_id in core_ids
    }
    return PowerModel(spec).platform_power(machine, activities)["total"]


def evaluate_all_states(
    spec: PlatformSpec,
    model: WorkloadModel,
    target: PerformanceTarget,
) -> List[OracleEvaluation]:
    """Offline sweep: oracle-evaluate the entire state space."""
    evaluations: List[OracleEvaluation] = []
    for c_big, c_little, f_big, f_little in spec.iter_states():
        state = SystemState(c_big, c_little, f_big, f_little)
        rate = oracle_rate(spec, model, state)
        watts = oracle_power(spec, model, state)
        evaluations.append(
            OracleEvaluation(
                state=state,
                rate=rate,
                watts=watts,
                norm_perf=target.normalized_performance(rate),
            )
        )
    return evaluations


def find_static_optimal(
    spec: PlatformSpec,
    model: WorkloadModel,
    target: PerformanceTarget,
) -> OracleEvaluation:
    """The SO state: best perf/watt among target-satisfying states.

    If no state satisfies ``t.min`` (an over-ambitious target), falls
    back to the fastest state — the same closest-to-target rule the HARS
    search applies.
    """
    evaluations = evaluate_all_states(spec, model, target)
    feasible = [e for e in evaluations if e.rate >= target.min_rate]
    if feasible:
        return max(
            feasible, key=lambda e: (e.perf_per_power, -e.watts)
        )
    return max(evaluations, key=lambda e: (e.rate, -e.watts))


def find_static_optimal_measured(
    spec: PlatformSpec,
    model_factory,
    target: PerformanceTarget,
    top_k: int = 6,
    probe_units: int = 50,
) -> SystemState:
    """Offline-simulation SO: analytic shortlist, then measured pick.

    The paper's static optimal comes from *offline simulations* of the
    real platform, so it never inherits the analytic model's optimism
    (e.g. fair-share pipeline equilibria the fixed point cannot see).
    This mirrors that: the oracle ranks the state space, the ``top_k``
    feasible candidates are each run briefly on the simulator, and the
    state with the best *measured* normalized perf/watt wins.

    ``model_factory`` must return a fresh workload model per call.
    """
    evaluations = evaluate_all_states(spec, model_factory(), target)
    feasible = [e for e in evaluations if e.rate >= target.min_rate]
    if not feasible:
        return find_static_optimal(spec, model_factory(), target).state
    # Shortlist per rate tier: the oracle can be optimistic (it cannot
    # see fair-share pipeline equilibria), so besides the best-perf/watt
    # feasible states we also probe the best states with progressively
    # more rate headroom — one of them measures feasible even when the
    # oracle's favourite does not.
    tiers = (target.min_rate, target.avg_rate, target.max_rate)
    per_tier = max(1, top_k // len(tiers))
    shortlist: List[SystemState] = []
    for tier_rate in tiers:
        tier = sorted(
            (e for e in feasible if e.rate >= tier_rate),
            key=lambda e: e.perf_per_power,
            reverse=True,
        )
        for evaluation in tier[:per_tier]:
            if evaluation.state not in shortlist:
                shortlist.append(evaluation.state)
            for bumped in _bumped_neighbours(spec, evaluation.state):
                if bumped not in shortlist:
                    shortlist.append(bumped)

    best_state: Optional[SystemState] = None
    best_score: Tuple[int, float] = (-1, 0.0)
    for state in shortlist:
        norm_perf, watts = _probe_state(
            spec, model_factory, target, state, probe_units
        )
        score = (1 if norm_perf >= 0.999 * (target.min_rate / target.avg_rate)
                 else 0, norm_perf / watts)
        if score > best_score:
            best_score = score
            best_state = state
    assert best_state is not None
    return best_state


def _bumped_neighbours(spec: PlatformSpec, state: SystemState):
    """One-step-faster variants of a state (higher freq or +1 core)."""
    freqs_b = spec.big.frequencies_mhz
    freqs_l = spec.little.frequencies_mhz
    i_fb = spec.big.freq_index(state.f_big_mhz)
    i_fl = spec.little.freq_index(state.f_little_mhz)
    if state.c_big > 0 and i_fb + 1 < len(freqs_b):
        yield SystemState(
            state.c_big, state.c_little, freqs_b[i_fb + 1], state.f_little_mhz
        )
    if state.c_little > 0 and i_fl + 1 < len(freqs_l):
        yield SystemState(
            state.c_big, state.c_little, state.f_big_mhz, freqs_l[i_fl + 1]
        )


def _probe_state(
    spec: PlatformSpec,
    model_factory,
    target: PerformanceTarget,
    state: SystemState,
    probe_units: int,
) -> Tuple[float, float]:
    """Short measured run of one state: (mean norm perf, avg watts)."""
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

    model = model_factory()
    if hasattr(model, "n_units"):
        probe_units = min(probe_units, model.total_heartbeats())
    model.reset()
    sim = Simulation(spec)
    app = sim.add_app(SimApp("so-probe", model, target))
    sim.add_controller(StaticOptimalController("so-probe", state))
    horizon = probe_units / max(target.min_rate, 1e-6) + 30.0
    sim.run(until_s=horizon)
    return (
        app.monitor.mean_normalized_performance(),
        sim.sensor.average_power_w(),
    )


class StaticOptimalController(Controller):
    """Runs one app at a fixed offline-chosen state under GTS."""

    def __init__(self, app_name: str, state: SystemState):
        self.app_name = app_name
        self.state = state

    def on_start(self, sim: "Simulation") -> None:
        self.state.validate(sim.spec)
        actuator = sim.actuator
        actuator.set_frequency(BIG, self.state.f_big_mhz)
        actuator.set_frequency(LITTLE, self.state.f_little_mhz)
        app = sim.app(self.app_name)
        actuator.clear_affinities(app)
        cpuset = frozenset(
            first_n(sim.spec, BIG, self.state.c_big)
            + first_n(sim.spec, LITTLE, self.state.c_little)
        )
        actuator.set_cpuset(app, cpuset)
        actuator.announce(
            app.name, self.state, self.state.c_big, self.state.c_little
        )

    def current_allocation(self, app_name: str) -> Optional[Tuple[int, int]]:
        if app_name != self.app_name:
            return None
        return (self.state.c_big, self.state.c_little)
