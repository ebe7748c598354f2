"""Performance-score ordering for the naive (CONS-I) adaptation model.

The naive model (Section 4.1.1) keeps the full system-state list sorted
by a scalar performance score::

    perfScore = C_B · r0 · (f_B / f0) + C_L · (f_L / f0)

and adapts *incrementally along that order*: underperform → step to the
state with the nearest higher score, overperform → nearest lower score.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.perf_estimator import DEFAULT_R0
from repro.core.state import SystemState
from repro.platform.core_types import BASELINE_FREQ_MHZ
from repro.platform.spec import PlatformSpec


def perf_score(state: SystemState) -> float:
    """The naive model's scalar performance score, at the paper's r0 and
    f0."""
    return (
        state.c_big * DEFAULT_R0 * state.f_big_mhz / BASELINE_FREQ_MHZ
        + state.c_little * state.f_little_mhz / BASELINE_FREQ_MHZ
    )


class ScoreOrderedStates:
    """The sorted configuration list with nearest-step navigation."""

    def __init__(self, spec: PlatformSpec):
        self.spec = spec
        scored: List[Tuple[float, SystemState]] = []
        for c_big, c_little, f_big, f_little in spec.iter_states():
            state = SystemState(c_big, c_little, f_big, f_little)
            scored.append((perf_score(state), state))
        # Deterministic order: by score, then by state tuple.
        scored.sort(
            key=lambda pair: (
                pair[0],
                pair[1].c_big,
                pair[1].c_little,
                pair[1].f_big_mhz,
                pair[1].f_little_mhz,
            )
        )
        self._states = [state for _, state in scored]
        self._scores = [score for score, _ in scored]

    def __len__(self) -> int:
        return len(self._states)

    def score_of(self, state: SystemState) -> float:
        return perf_score(state)

    def step_up(self, current: SystemState) -> Optional[SystemState]:
        """Nearest state with a strictly higher score (None at the top)."""
        score = self.score_of(current)
        for candidate_score, candidate in zip(self._scores, self._states):
            if candidate_score > score + 1e-12:
                return candidate
        return None

    def step_down(self, current: SystemState) -> Optional[SystemState]:
        """Nearest state with a strictly lower score (None at the bottom)."""
        score = self.score_of(current)
        best: Optional[SystemState] = None
        for candidate_score, candidate in zip(self._scores, self._states):
            if candidate_score < score - 1e-12:
                best = candidate
            else:
                break
        return best

    @property
    def top(self) -> SystemState:
        """Highest-score state (the naive model's initial state)."""
        return self._states[-1]


def incremental_step(
    spec: PlatformSpec,
    current: SystemState,
    increase: bool,
) -> Optional[SystemState]:
    """One incremental move along the performance-score order.

    The naive model "chooses the candidate system state that makes the
    smallest system performance change": among the single-component
    neighbours (one core count or one frequency level moved by one step),
    pick the one whose perfScore moves in the requested direction by the
    smallest amount.  Returns ``None`` at the edge of the space.
    """
    base_score = perf_score(current)
    best: Optional[SystemState] = None
    best_delta = float("inf")
    for candidate in _single_step_neighbours(spec, current):
        delta = perf_score(candidate) - base_score
        if increase and delta <= 1e-12:
            continue
        if not increase and delta >= -1e-12:
            continue
        if abs(delta) < best_delta:
            best_delta = abs(delta)
            best = candidate
    return best


def _single_step_neighbours(spec, current: SystemState):
    """States differing from ``current`` by one step in one dimension."""
    cb, cl, ifb, ifl = current.indices(spec)
    n_fb = len(spec.big.frequencies_mhz)
    n_fl = len(spec.little.frequencies_mhz)
    moves = [
        (cb - 1, cl, ifb, ifl),
        (cb + 1, cl, ifb, ifl),
        (cb, cl - 1, ifb, ifl),
        (cb, cl + 1, ifb, ifl),
        (cb, cl, ifb - 1, ifl),
        (cb, cl, ifb + 1, ifl),
        (cb, cl, ifb, ifl - 1),
        (cb, cl, ifb, ifl + 1),
    ]
    for new_cb, new_cl, new_ifb, new_ifl in moves:
        if not 0 <= new_cb <= spec.big.n_cores:
            continue
        if not 0 <= new_cl <= spec.little.n_cores:
            continue
        if new_cb == 0 and new_cl == 0:
            continue
        if not 0 <= new_ifb < n_fb or not 0 <= new_ifl < n_fl:
            continue
        yield SystemState(
            c_big=new_cb,
            c_little=new_cl,
            f_big_mhz=spec.big.frequencies_mhz[new_ifb],
            f_little_mhz=spec.little.frequencies_mhz[new_ifl],
        )
