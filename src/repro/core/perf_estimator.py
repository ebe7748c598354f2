"""HARS performance estimator (Section 3.1.1).

The estimator assumes application performance is proportional to core
count and frequency, with a *fixed* big:little per-core ratio
``r0`` = 3/2 derived from the issue widths of the A15 (3) and A7 (2).
That assumption is a deliberate imperfection the paper analyses: the
measured ratio of blackscholes is 1.0, which makes HARS settle on
suboptimal states for it (Section 5.1.2).

Per-core speeds at candidate frequencies scale linearly:
``S_B = (f_B/f0)·S_B,f0`` and ``S_L = (f_L/f0)·S_L,f0``; thread placement
follows Table 3.1 (:mod:`repro.core.assignment`), and estimated cluster
utilizations ``U_X = t_X / t_f`` feed the power estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import ThreadAssignment, assign_threads, cluster_times
from repro.core.state import SystemState
from repro.errors import EstimationError
from repro.platform.core_types import BASELINE_FREQ_MHZ

#: The paper's assumed big:little per-core performance ratio (r0 = 3/2).
DEFAULT_R0 = 1.5


@dataclass(frozen=True)
class PerformanceEstimate:
    """Estimator output for one candidate state."""

    assignment: ThreadAssignment
    capacity: float  # work units per second the model predicts
    util_big: float  # U_B,U = t_B / t_f
    util_little: float  # U_L,U = t_L / t_f

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise EstimationError("estimated capacity must be positive")


class PerformanceEstimator:
    """Analytic capacity model over system states."""

    #: The baseline frequency f0 the per-core speeds scale from.
    f0_mhz = BASELINE_FREQ_MHZ
    #: Little-core speed at f0 (``S_L,f0``), the model's unit of speed.
    s_little_f0 = 1.0

    def __init__(self, r0: float = DEFAULT_R0):
        if r0 <= 0:
            raise EstimationError("r0 must be positive")
        self.r0 = r0

    def per_core_speeds(self, state: SystemState) -> tuple:
        """``(S_B, S_L)`` at the state's frequencies."""
        s_big = self.r0 * self.s_little_f0 * state.f_big_mhz / self.f0_mhz
        s_little = self.s_little_f0 * state.f_little_mhz / self.f0_mhz
        return s_big, s_little

    def estimate(self, state: SystemState, n_threads: int) -> PerformanceEstimate:
        """Capacity and utilizations of a candidate state.

        Capacity is in model work units per second (``W = 1``); only
        capacity *ratios* between states are meaningful, which is how the
        runtime manager uses them.
        """
        s_big, s_little = self.per_core_speeds(state)
        if state.c_big == 0:
            ratio = 1.0  # no big cores: the split is trivial
        elif state.c_little == 0:
            ratio = self.r0
        else:
            ratio = s_big / s_little
        assignment = assign_threads(n_threads, state.c_big, state.c_little, ratio)
        t_b, t_l, t_f = cluster_times(
            assignment,
            unit_work=1.0,
            n_threads=n_threads,
            c_big=state.c_big,
            c_little=state.c_little,
            s_big=s_big,
            s_little=s_little,
        )
        if t_f <= 0:
            raise EstimationError(f"state {state.describe()} has no capacity")
        return PerformanceEstimate(
            assignment=assignment,
            capacity=1.0 / t_f,
            util_big=(t_b / t_f) if t_f > 0 else 0.0,
            util_little=(t_l / t_f) if t_f > 0 else 0.0,
        )

    def estimate_rate(
        self,
        candidate: SystemState,
        current: SystemState,
        observed_rate: float,
        n_threads: int,
    ) -> float:
        """Predicted heartbeat rate at ``candidate``.

        Transfers the observed rate by the ratio of modelled capacities,
        which cancels the absolute work scale and most systematic model
        error: ``h(candidate) = h(current) · cap(candidate)/cap(current)``.
        """
        if observed_rate <= 0:
            raise EstimationError("observed rate must be positive")
        cap_candidate = self.estimate(candidate, n_threads).capacity
        cap_current = self.estimate(current, n_threads).capacity
        return observed_rate * cap_candidate / cap_current


def tabulate_performance(spec, n_threads: int, estimate) -> dict:
    """Sweep ``estimate`` over the full state grid into dense arrays.

    Returns float64/int64/bool numpy arrays indexed
    ``[c_big, c_little, i_fb, i_fl]``: ``capacity``, the assignment's
    ``t_big``/``t_little``/``used_big``/``used_little``, ``util_big``,
    ``util_little`` and a ``valid`` mask
    (False where the model raised :class:`EstimationError`, and on the
    zero-core row, which is not a legal state).  Every cell is the
    estimator's own scalar output, so downstream consumers see
    bit-identical floats to per-state calls.
    """
    import numpy as np

    big_freqs = spec.big.frequencies_mhz
    little_freqs = spec.little.frequencies_mhz
    shape = (
        spec.big.n_cores + 1,
        spec.little.n_cores + 1,
        len(big_freqs),
        len(little_freqs),
    )
    capacity = np.full(shape, np.nan)
    t_big = np.zeros(shape, dtype=np.int64)
    t_little = np.zeros(shape, dtype=np.int64)
    used_big = np.zeros(shape, dtype=np.int64)
    used_little = np.zeros(shape, dtype=np.int64)
    util_big = np.full(shape, np.nan)
    util_little = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)
    for cb in range(shape[0]):
        for cl in range(shape[1]):
            if cb == 0 and cl == 0:
                continue
            for ifb, fb in enumerate(big_freqs):
                for ifl, fl in enumerate(little_freqs):
                    state = SystemState(cb, cl, fb, fl)
                    try:
                        result = estimate(state, n_threads)
                    except EstimationError:
                        continue
                    capacity[cb, cl, ifb, ifl] = result.capacity
                    t_big[cb, cl, ifb, ifl] = result.assignment.t_big
                    t_little[cb, cl, ifb, ifl] = result.assignment.t_little
                    used_big[cb, cl, ifb, ifl] = result.assignment.used_big
                    used_little[cb, cl, ifb, ifl] = (
                        result.assignment.used_little
                    )
                    util_big[cb, cl, ifb, ifl] = result.util_big
                    util_little[cb, cl, ifb, ifl] = result.util_little
                    valid[cb, cl, ifb, ifl] = True
    return {
        "capacity": capacity,
        "t_big": t_big,
        "t_little": t_little,
        "used_big": used_big,
        "used_little": used_little,
        "util_big": util_big,
        "util_little": util_little,
        "valid": valid,
    }
