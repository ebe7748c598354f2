"""The HARS search function (the paper's Algorithm 2, ``GetNextSysState``).

Sweeps the neighbourhood ``[x−m, x+n]`` of the current state per
dimension, prunes by Manhattan distance ``d``, estimates each candidate's
normalized performance and power, and picks the best state under the
paper's two-tier rule:

1. any candidate *satisfying the target* (``est_rate ≥ t.min``) beats
   every candidate that does not;
2. among satisfying candidates, highest normalized perf/power wins;
   among non-satisfying candidates, highest estimated performance wins
   (get as close to the target as possible).

MP-HARS runs the same search with a *candidate filter* that encodes
its resource-partitioning and frozen-state constraints.

This scalar loop is the repository's **bit-identity oracle**: the
tensorized sweep every manager plans with (:mod:`repro.kernel.batchplan`)
must reproduce its selected state and every counter exactly, and the
parity suite
(``tests/kernel/test_batchplan.py``) cross-checks the two on randomized
sweeps.  Changes to the selection or counter semantics here must be
mirrored there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.perf_estimator import PerformanceEstimate, PerformanceEstimator
from repro.core.policy import SearchSpace
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState, neighbourhood
from repro.errors import EstimationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import PlatformSpec

#: Filter signature: ``(candidate, current) -> allowed?``
CandidateFilter = Callable[[SystemState, SystemState], bool]


@dataclass(frozen=True)
class EvaluatedState:
    """One candidate with its estimates."""

    state: SystemState
    estimate: PerformanceEstimate
    est_rate: float
    norm_perf: float
    est_power: float

    @property
    def perf_per_power(self) -> float:
        """The selection metric: normalized performance per watt."""
        if self.est_power <= 0:
            raise EstimationError(
                f"cannot rank {self.state!r} by perf/watt: the power "
                f"estimate is non-positive ({self.est_power!r})"
            )
        return self.norm_perf / self.est_power

    @property
    def feasible(self) -> bool:
        """Whether the estimated rate satisfies the target minimum."""
        return self._feasible

    # populated via __post_init__ trick below (frozen dataclass)
    _feasible: bool = False


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one ``GetNextSysState`` invocation.

    ``forced_fallback`` marks the degenerate case where the candidate
    filter rejected the whole neighbourhood (including the current
    state) and the search was forced to stay put.
    ``estimation_failures`` counts candidates skipped because their
    estimate raised :class:`~repro.errors.EstimationError` — one bad
    candidate degrades the sweep, never aborts the adaptation cycle.
    ``pruned`` counts box candidates the Manhattan-distance prune
    rejected before estimation (the telemetry layer's
    ``search_pruned_total``); ``filtered`` counts candidates the
    *guardrail* filter vetoed (``search_filtered_total``) — kept
    separate so telemetry can distinguish "pruned by d" from "vetoed
    by budget".
    """

    best: EvaluatedState
    states_explored: int
    forced_fallback: bool = False
    estimation_failures: int = 0
    pruned: int = 0
    filtered: int = 0

    @property
    def state(self) -> SystemState:
        return self.best.state


def evaluate_state(
    candidate: SystemState,
    current: SystemState,
    observed_rate: float,
    n_threads: int,
    target: PerformanceTarget,
    perf_estimator: PerformanceEstimator,
    power_estimator: PowerEstimator,
) -> EvaluatedState:
    """Estimate one candidate's rate, normalized perf, and power."""
    estimate = perf_estimator.estimate(candidate, n_threads)
    est_rate = perf_estimator.estimate_rate(
        candidate, current, observed_rate, n_threads
    )
    norm_perf = target.normalized_performance(est_rate)
    est_power = power_estimator.estimate(candidate, estimate)
    return EvaluatedState(
        state=candidate,
        estimate=estimate,
        est_rate=est_rate,
        norm_perf=norm_perf,
        est_power=est_power,
        _feasible=est_rate >= target.min_rate,
    )


def _better(challenger: EvaluatedState, incumbent: EvaluatedState) -> bool:
    """Algorithm 2 lines 13–22: the two-tier comparison.

    Among infeasible candidates the paper picks the fastest; estimated
    rates often tie exactly (whichever cluster binds the barrier sets the
    rate), so ties break toward better perf/watt.
    """
    if challenger.feasible:
        if incumbent.feasible:
            return challenger.perf_per_power > incumbent.perf_per_power
        return True
    if incumbent.feasible:
        return False
    if challenger.est_rate > incumbent.est_rate * (1 + 1e-9):
        return True
    if challenger.est_rate < incumbent.est_rate * (1 - 1e-9):
        return False
    return challenger.perf_per_power > incumbent.perf_per_power


def get_next_sys_state(
    spec: PlatformSpec,
    current: SystemState,
    observed_rate: float,
    n_threads: int,
    target: PerformanceTarget,
    space: SearchSpace,
    perf_estimator: PerformanceEstimator,
    power_estimator: PowerEstimator,
    candidate_filter: Optional[CandidateFilter] = None,
    guard_filter: Optional[CandidateFilter] = None,
) -> SearchResult:
    """Algorithm 2: sweep, estimate, and select the next system state.

    The current state is itself a candidate (distance 0), so the search
    never returns something worse than staying put — this is the paper's
    final ``getBetterState(cs, ns)`` step.

    ``states_explored`` counts candidates actually *estimated* (after the
    distance prune and the filter), which is what the Figure 5.3(b)
    overhead accounting meters.

    ``candidate_filter`` encodes *structural* constraints (MP-HARS
    partitions, frozen states) and its rejections are uncounted;
    ``guard_filter`` is the guardrail veto (budget caps) and its
    rejections are reported as ``filtered``.  The guard runs after the
    structural filter, so ``filtered`` counts only vetoes among
    structurally-admissible candidates.
    """
    if observed_rate <= 0:
        raise EstimationError("search needs a positive observed rate")
    best: Optional[EvaluatedState] = None
    explored = 0
    estimation_failures = 0
    filtered = 0
    sweep_stats: dict = {}
    for candidate in neighbourhood(
        spec, current, space.m, space.n, space.d, stats=sweep_stats
    ):
        if candidate_filter is not None and not candidate_filter(
            candidate, current
        ):
            continue
        if guard_filter is not None and not guard_filter(candidate, current):
            filtered += 1
            continue
        # A candidate whose estimate raises (missing coefficients after
        # a partial restore, degenerate power prediction, …) is skipped
        # and counted; the sweep continues with the rest of the
        # neighbourhood instead of aborting the whole adaptation cycle.
        try:
            evaluated = evaluate_state(
                candidate,
                current,
                observed_rate,
                n_threads,
                target,
                perf_estimator,
                power_estimator,
            )
            better = best is None or _better(evaluated, best)
        except EstimationError:
            estimation_failures += 1
            continue
        explored += 1
        if better:
            best = evaluated
    if best is None:
        # Nothing passed the filter.  The current state is always in the
        # neighbourhood (distance 0), so reaching here means the filter
        # rejected it too: staying put is a *forced hold*, not an
        # Algorithm 2 candidate.  It is evaluated only to fill in the
        # result's estimates and is excluded from ``states_explored`` —
        # the Figure 5.3(b) overhead metering counts filter-passing
        # candidates only.
        best = evaluate_state(
            current,
            current,
            observed_rate,
            n_threads,
            target,
            perf_estimator,
            power_estimator,
        )
        return SearchResult(
            best=best,
            states_explored=explored,
            forced_fallback=True,
            estimation_failures=estimation_failures,
            pruned=sweep_stats.get("pruned", 0),
            filtered=filtered,
        )
    return SearchResult(
        best=best,
        states_explored=explored,
        estimation_failures=estimation_failures,
        pruned=sweep_stats.get("pruned", 0),
        filtered=filtered,
    )
