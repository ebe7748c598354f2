"""Rate/power Pareto analysis of the system-state space.

A diagnostic the paper's evaluation implies but never shows: where do
the states a runtime *settles in* sit relative to the platform's true
rate/power trade-off frontier?  The frontier comes from the
static-optimal oracle (ground-truth rate and power per state under GTS);
a settled state's quality is its excess power over the cheapest
frontier point that still delivers its rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.baselines.static_optimal import evaluate_all_states
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import PlatformSpec
from repro.workloads.base import WorkloadModel


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated (rate, watts) operating point."""

    state: SystemState
    rate: float
    watts: float


class ParetoFrontier:
    """The non-dominated frontier of a workload's state space."""

    def __init__(self, points: Sequence[ParetoPoint]):
        if not points:
            raise ConfigurationError("empty frontier")
        # Ascending by rate; by construction watts ascend with rate too.
        self._points: List[ParetoPoint] = sorted(
            points, key=lambda p: (p.rate, p.watts)
        )

    @property
    def points(self) -> Tuple[ParetoPoint, ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def min_watts_for_rate(self, rate: float) -> Optional[float]:
        """Cheapest frontier power delivering at least ``rate``.

        ``None`` when the rate exceeds the platform's maximum.
        """
        if rate < 0:
            raise ConfigurationError("negative rate")
        candidates = [p.watts for p in self._points if p.rate >= rate - 1e-12]
        return min(candidates) if candidates else None

    def excess_power(self, rate: float, watts: float) -> Optional[float]:
        """How many watts above the frontier a measured point sits.

        Slightly negative values (a measured point beating the oracle
        frontier, e.g. HARS's own scheduler outperforming GTS) are
        clamped to zero.  ``None`` if the rate is off-frontier.
        """
        floor = self.min_watts_for_rate(rate)
        if floor is None:
            return None
        return max(0.0, watts - floor)

    def excess_ratio(self, rate: float, watts: float) -> Optional[float]:
        """Excess power as a fraction of the frontier floor."""
        floor = self.min_watts_for_rate(rate)
        if floor is None or floor <= 0:
            return None
        return max(0.0, watts / floor - 1.0)


def build_frontier(
    spec: PlatformSpec,
    model: WorkloadModel,
) -> ParetoFrontier:
    """Oracle-evaluate every state and keep the non-dominated set.

    A state is dominated if another state is at least as fast and
    strictly cheaper (or as cheap and strictly faster).
    """
    target = PerformanceTarget(1.0, 1.0, 1.0)  # unused by the oracle rate
    evaluations = evaluate_all_states(spec, model, target)
    by_rate = sorted(evaluations, key=lambda e: (-e.rate, e.watts))
    frontier: List[ParetoPoint] = []
    cheapest_so_far = float("inf")
    for evaluation in by_rate:
        if evaluation.watts < cheapest_so_far - 1e-12:
            cheapest_so_far = evaluation.watts
            frontier.append(
                ParetoPoint(
                    state=evaluation.state,
                    rate=evaluation.rate,
                    watts=evaluation.watts,
                )
            )
    return ParetoFrontier(frontier)
