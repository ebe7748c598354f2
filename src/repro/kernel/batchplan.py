"""Vectorized batch planning engine: Algorithm 2 as tensor operations.

The HARS state space is tiny (at most a few thousand ``(C_B, C_L, f_B,
f_L)`` points per application), yet the scalar Algorithm 2
(:func:`repro.core.search.get_next_sys_state`, kept as the test oracle)
walks it one Python call at a time every adaptation period.  This module precomputes the *full* state-space
tensor per performance/power model — dense numpy arrays indexed by
``(C_B, C_L, i_fB, i_fL)`` holding predicted capacity, used cores,
utilizations and power — and reimplements the bounded sweep, the
Manhattan-distance prune, the structural ``candidate_filter``, the
guardrail ``guard_filter`` veto, the feasibility test and the
``_better`` tie-breaking as boolean-mask and argmax array ops.

**Parity contract.**  The vector backend is bit-identical to the scalar
oracle: the selected state, every ``SearchResult`` counter
(``states_explored``, ``pruned``, ``filtered``, ``estimation_failures``,
``forced_fallback``) and the winner's floats match the scalar sweep on
every input.  Three properties make this exact rather than approximate:

1. *Tensor floats are scalar floats.*  Tensor cells are produced by the
   same per-state estimator calls the scalar path makes (capacity and
   utilizations), and the power plane is combined with elementwise
   float64 ops in the same association order as
   :meth:`~repro.core.power_estimator.LinearCoefficients.predict`
   (``(α·C)·U + β``, summed big-then-little) — IEEE-754 doubles either
   way.
2. *Feasible selection is a first-argmax.*  The scalar fold keeps the
   incumbent on ties (strict ``>``), which over candidates in sweep
   order is exactly ``argmax`` (numpy returns the first maximum) of
   perf/watt over the feasible subset; any feasible candidate beats
   every infeasible one.
3. *The infeasible banded fold shortlists exactly.*  ``_better``'s
   banded comparison (win above ``rate·(1+1e-9)``, lose below
   ``rate·(1−1e-9)``, perf/watt tie-break inside the band) is not a
   total order, so it is replayed, not argmax'd: a prefix running
   maximum ``PM`` shortlists every candidate with
   ``rate ≥ PM·(1−(N+4)·1e-9)`` and the exact scalar fold runs over the
   (tiny) shortlist.  A dropped candidate can never beat the fold's
   incumbent — the incumbent's rate is always within ``(N+2)·1e-9`` of
   ``PM`` (it either holds the prefix maximum, beat it, or tied it
   through at most ``N`` band steps of relative width ``1e-9``), so a
   candidate more than ``(N+4)·1e-9`` below ``PM`` loses outright; the
   margin dwarfs float rounding by six orders of magnitude.

The winner is then re-evaluated through the scalar
:func:`~repro.core.search.evaluate_state` (via the memoizing estimation
layer), so the returned :class:`~repro.core.search.EvaluatedState` is
the very object the scalar path would have produced.

**Filter protocol.**  Structural and guardrail filters are
``(candidate, current) -> bool`` callables for the scalar oracle that
also expose ``box_mask(box)``, a boolean array over a
:class:`CandidateBox` with the same verdicts; this backend applies only
the mask (:class:`~repro.guardrails.layer.BudgetVeto` and MP-HARS's
:class:`~repro.mphars.manager.PartitionFilter` are the two filters).

**Scope.**  Parity assumes the stock estimator contract: estimates are
pure functions of their inputs that either return positive
capacity/power or raise :class:`~repro.errors.EstimationError`, and the
power model is a :class:`~repro.core.power_estimator.PowerEstimator`
whose ``tabulate`` yields the linear coefficient tables.  A
non-conforming estimator that *returns* a non-positive power instead of
raising is treated as an estimation failure here (the scalar fold's
behaviour for that case depends on encounter order and is not
reproducible from a tensor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.perf_estimator import tabulate_performance
from repro.core.search import SearchResult, evaluate_state
from repro.core.state import SystemState, _clamped_range, from_indices
from repro.errors import ConfigurationError, EstimationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import PlatformSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import SearchSpace
    from repro.kernel.estimation import EstimationLayer

#: Relative half-width of the ``_better`` tie band (mirrors core.search).
_BAND = 1e-9

#: Most candidates a tensor's box memo holds (about 65 bytes each, so
#: 270 kB) before it starts over.  The 200-node fleet's boxes take about
#: 3,100, while one board's HARS-E sweeps cover most of the space and
#: rarely repeat.
BOX_MEMO_CELLS = 4096


class StateSpaceTensor:
    """Dense per-model tensors over the full ``(C_B, C_L, i_fB, i_fL)`` grid.

    ``capacity``/``util_big``/``util_little`` come from the performance
    model (NaN where it fails), ``used_big``/``used_little`` from the
    thread assignment, ``power`` from the power model (NaN where either
    model fails), ``perf_valid``/``valid`` are the failure masks.  The
    tensor belongs to one ``(performance model, power model, n_threads)``
    triple and is read-only once built, so every
    :class:`~repro.kernel.estimation.EstimationLayer` holding equal
    models may share it; a layer drops its reference whenever a model
    is swapped or invalidated.

    The tensor also memoizes the planner's box work (see
    :func:`_admission`), so that memo goes with the tensor:
    ``boxes`` maps a box's clamped index ranges to its
    :class:`CandidateBox` (coordinates and planes, read-only arrays),
    and ``admissions`` maps a sweep's ``(centre indices, m, n, d)`` to
    that box, its zero-core-row and distance admission mask and its
    ``pruned`` count.  Boxes are shared by ranges, so sweeps whose
    ranges clamp alike (every full-space escape sweep) hold one copy of
    the planes; both dicts start over once the boxes hold
    :data:`BOX_MEMO_CELLS` candidates.
    """

    __slots__ = (
        "spec_name",
        "n_threads",
        "capacity",
        "used_big",
        "used_little",
        "util_big",
        "util_little",
        "power",
        "perf_valid",
        "valid",
        "big_freqs",
        "little_freqs",
        "boxes",
        "admissions",
    )

    def __init__(
        self,
        spec_name: str,
        n_threads: int,
        capacity: np.ndarray,
        used_big: np.ndarray,
        used_little: np.ndarray,
        util_big: np.ndarray,
        util_little: np.ndarray,
        power: np.ndarray,
        perf_valid: np.ndarray,
        valid: np.ndarray,
        big_freqs: np.ndarray,
        little_freqs: np.ndarray,
    ):
        self.spec_name = spec_name
        self.n_threads = n_threads
        self.capacity = capacity
        self.used_big = used_big
        self.used_little = used_little
        self.util_big = util_big
        self.util_little = util_little
        self.power = power
        self.perf_valid = perf_valid
        self.valid = valid
        self.big_freqs = big_freqs
        self.little_freqs = little_freqs
        self.boxes: Dict[tuple, "CandidateBox"] = {}
        self.admissions: Dict[tuple, tuple] = {}

    @classmethod
    def build(
        cls, spec: PlatformSpec, n_threads: int, perf: Any, power: Any
    ) -> "StateSpaceTensor":
        """Tabulate both models over the full grid.

        ``perf``/``power`` are the estimation layer's raw estimators.
        The performance model is swept per state through its
        ``estimate``; the power model's per-frequency coefficients
        (``tabulate``) are combined over the grid in one pass.
        """
        tables = tabulate_performance(spec, n_threads, perf.estimate)
        perf_valid = tables["valid"]
        power_grid, power_ok = _combine_power(power.tabulate(spec), tables)
        return cls(
            spec_name=spec.name,
            n_threads=n_threads,
            capacity=tables["capacity"],
            used_big=tables["used_big"],
            used_little=tables["used_little"],
            util_big=tables["util_big"],
            util_little=tables["util_little"],
            power=power_grid,
            perf_valid=perf_valid,
            valid=perf_valid & power_ok,
            big_freqs=np.asarray(spec.big.frequencies_mhz, dtype=np.int64),
            little_freqs=np.asarray(
                spec.little.frequencies_mhz, dtype=np.int64
            ),
        )


def _combine_power(ptables: dict, tables: dict) -> tuple:
    """Vectorized power plane from per-frequency linear coefficients.

    Reproduces ``LinearCoefficients.predict`` + ``PowerEstimator.estimate``
    cellwise in the same float association order:
    ``((α_B·C_B,U)·U_B + β_B) + ((α_L·C_L,U)·U_L + β_L)``.
    """
    alpha_big = ptables["alpha_big"][None, None, :, None]
    beta_big = ptables["beta_big"][None, None, :, None]
    ok_big = ptables["ok_big"][None, None, :, None]
    alpha_little = ptables["alpha_little"][None, None, None, :]
    beta_little = ptables["beta_little"][None, None, None, :]
    ok_little = ptables["ok_little"][None, None, None, :]
    util_big = tables["util_big"]
    util_little = tables["util_little"]
    p_big = (alpha_big * tables["used_big"]) * util_big + beta_big
    p_little = (alpha_little * tables["used_little"]) * util_little
    p_little = p_little + beta_little
    total = p_big + p_little
    # predict() raises outside [0, 1]; NaN utils compare False on both
    # sides, so perf-invalid cells drop out here as well.
    util_ok = (
        (util_big >= 0.0)
        & (util_big <= 1.0)
        & (util_little >= 0.0)
        & (util_little <= 1.0)
    )
    ok = tables["valid"] & ok_big & ok_little & util_ok & (total > 0.0)
    return np.where(ok, total, np.nan), ok


#: The per-candidate arrays of a :class:`CandidateBox`.
_BOX_ARRAYS = (
    "c_big",
    "c_little",
    "i_fb",
    "i_fl",
    "f_big_mhz",
    "f_little_mhz",
    "capacity",
    "power",
    "valid",
)


class CandidateBox:
    """One sweep box, flattened in the scalar loop's C order.

    Exposes the per-candidate coordinate arrays (``c_big``, ``c_little``,
    ``i_fb``, ``i_fl``, ``f_big_mhz``, ``f_little_mhz``), the tensor
    planes restricted to the box (``capacity``, ``power``, ``valid``)
    and the sweep's ``current`` state — everything a filter's
    ``box_mask`` needs.  Index ``i`` of every array is the ``i``-th
    candidate the scalar nested loops would visit.  The arrays are
    read-only: a tensor's memo keeps one box per index ranges, with no
    ``current``, and :meth:`around` hands each sweep its arrays with
    the sweep's own ``current``.
    """

    __slots__ = ("spec", "current") + _BOX_ARRAYS

    def __init__(
        self,
        spec: PlatformSpec,
        current: Optional[SystemState],
        tensor: StateSpaceTensor,
        cb_idx: np.ndarray,
        cl_idx: np.ndarray,
        fb_idx: np.ndarray,
        fl_idx: np.ndarray,
    ):
        self.spec = spec
        self.current = current
        grid = np.ix_(cb_idx, cl_idx, fb_idx, fl_idx)
        self.capacity = tensor.capacity[grid].ravel()
        self.power = tensor.power[grid].ravel()
        self.valid = tensor.valid[grid].ravel()
        cb, cl, ifb, ifl = np.meshgrid(
            cb_idx, cl_idx, fb_idx, fl_idx, indexing="ij"
        )
        self.c_big = cb.ravel()
        self.c_little = cl.ravel()
        self.i_fb = ifb.ravel()
        self.i_fl = ifl.ravel()
        self.f_big_mhz = tensor.big_freqs[self.i_fb]
        self.f_little_mhz = tensor.little_freqs[self.i_fl]
        for name in _BOX_ARRAYS:
            getattr(self, name).flags.writeable = False

    def around(self, spec: PlatformSpec, current: SystemState) -> "CandidateBox":
        """This box's candidates and planes for a sweep from ``current``."""
        box = CandidateBox.__new__(CandidateBox)
        box.spec = spec
        box.current = current
        for name in _BOX_ARRAYS:
            setattr(box, name, getattr(self, name))
        return box

    def __len__(self) -> int:
        return int(self.c_big.size)

    def state_at(self, i: int) -> SystemState:
        """The ``i``-th candidate as a validated :class:`SystemState`."""
        return from_indices(
            self.spec,
            int(self.c_big[i]),
            int(self.c_little[i]),
            int(self.i_fb[i]),
            int(self.i_fl[i]),
        )


def batch_next_sys_state(
    spec: PlatformSpec,
    current: SystemState,
    observed_rate: float,
    n_threads: int,
    target: PerformanceTarget,
    space: "SearchSpace",
    estimation: "EstimationLayer",
    candidate_filter: Optional[Callable[[SystemState, SystemState], bool]] = None,
    guard_filter: Optional[Callable[[SystemState, SystemState], bool]] = None,
) -> SearchResult:
    """Algorithm 2 over the state-space tensor — the vector backend.

    Bit-identical to :func:`repro.core.search.get_next_sys_state` (see
    the module docstring for the parity argument), including the counter
    semantics: ``pruned`` counts distance-pruned box states outside the
    zero-core row, structural rejections are uncounted, guard vetoes are
    ``filtered`` only among structurally-admissible candidates, and an
    estimation failure is any admitted candidate whose own estimates —
    or the current state's capacity — are unavailable.
    """
    if observed_rate <= 0:
        raise EstimationError("search needs a positive observed rate")
    m, n, d = space.m, space.n, space.d
    if m < 0 or n < 0:
        raise ConfigurationError("m and n must be non-negative")
    if d <= 0:
        raise ConfigurationError("d must be positive")
    tensor = estimation.tensor(spec, n_threads)
    centre = current.indices(spec)
    key = (centre, m, n, d)
    # Session threads may share a tensor.  Two sweeps that miss together
    # build equal entries and the later write wins, so no lock is needed.
    memo = tensor.admissions.get(key)
    if memo is None:
        memo = tensor.admissions[key] = _admission(tensor, spec, centre, m, n, d)
    box, admitted, pruned = memo
    box = box.around(spec, current)
    cb0, cl0, ifb0, ifl0 = centre

    if candidate_filter is not None:
        admitted = admitted & np.asarray(
            candidate_filter.box_mask(box), dtype=bool
        )

    filtered = 0
    if guard_filter is not None:
        allowed = np.asarray(guard_filter.box_mask(box), dtype=bool)
        filtered = int(np.count_nonzero(admitted & ~allowed))
        admitted = admitted & allowed

    # evaluate_state needs the current state's capacity for every
    # candidate's rate transfer: an invalid current fails them all.
    current_valid = bool(tensor.perf_valid[cb0, cl0, ifb0, ifl0])
    if current_valid:
        evaluable = admitted & box.valid
    else:
        evaluable = np.zeros(len(box), dtype=bool)
    explored = int(np.count_nonzero(evaluable))
    estimation_failures = int(np.count_nonzero(admitted)) - explored

    if explored == 0:
        # Forced hold, exactly like the scalar path: evaluated only to
        # fill in the result (and may itself raise EstimationError).
        best = evaluate_state(
            current,
            current,
            observed_rate,
            n_threads,
            target,
            estimation.perf,
            estimation.power,
        )
        return SearchResult(
            best=best,
            states_explored=0,
            forced_fallback=True,
            estimation_failures=estimation_failures,
            pruned=pruned,
            filtered=filtered,
        )

    idxs = np.flatnonzero(evaluable)
    cap_current = float(tensor.capacity[cb0, cl0, ifb0, ifl0])
    est_rate = (observed_rate * box.capacity[idxs]) / cap_current
    avg = target.avg_rate
    norm_perf = np.minimum(avg, est_rate) / avg
    ppw = norm_perf / box.power[idxs]
    feasible = est_rate >= target.min_rate
    if feasible.any():
        winner = int(idxs[int(np.argmax(np.where(feasible, ppw, -np.inf)))])
    else:
        winner = int(idxs[_banded_argbest(est_rate, ppw)])
    best = evaluate_state(
        box.state_at(winner),
        current,
        observed_rate,
        n_threads,
        target,
        estimation.perf,
        estimation.power,
    )
    return SearchResult(
        best=best,
        states_explored=explored,
        estimation_failures=estimation_failures,
        pruned=pruned,
        filtered=filtered,
    )


def _admission(
    tensor: StateSpaceTensor,
    spec: PlatformSpec,
    centre: tuple,
    m: int,
    n: int,
    d: int,
) -> tuple:
    """``(box, admitted, pruned)`` of one sweep: the box over the
    clamped ranges (from ``tensor.boxes``, built on a miss), the mask
    of states the scalar loops would consider and the distance-pruned
    count.  None of them depends on the sweep's rate, target or
    filters."""
    cb0, cl0, ifb0, ifl0 = centre
    ranges = (
        _clamped_range(cb0, m, n, 0, spec.big.n_cores),
        _clamped_range(cl0, m, n, 0, spec.little.n_cores),
        _clamped_range(ifb0, m, n, 0, len(spec.big.frequencies_mhz) - 1),
        _clamped_range(ifl0, m, n, 0, len(spec.little.frequencies_mhz) - 1),
    )
    box = tensor.boxes.get(ranges)  # ranges compare and hash by value
    if box is None:
        if sum(map(len, tensor.boxes.values())) >= BOX_MEMO_CELLS:
            tensor.boxes.clear()
            tensor.admissions.clear()
        box = tensor.boxes[ranges] = CandidateBox(
            spec, None, tensor, *(np.asarray(r) for r in ranges)
        )
    dist = (
        np.abs(box.c_big - cb0)
        + np.abs(box.c_little - cl0)
        + np.abs(box.i_fb - ifb0)
        + np.abs(box.i_fl - ifl0)
    )
    # The scalar sweep skips the zero-core row before the distance
    # check, so those states are neither candidates nor "pruned".
    allocates = (box.c_big + box.c_little) > 0
    within = dist <= d
    pruned = int(np.count_nonzero(allocates & ~within))
    admitted = allocates & within
    admitted.flags.writeable = False
    return box, admitted, pruned


def _banded_argbest(est_rate: np.ndarray, ppw: np.ndarray) -> int:
    """Replay the all-infeasible ``_better`` fold exactly.

    Shortlists candidates within ``(N+4)·1e-9`` (relative) of the prefix
    running maximum — a superset of every state the scalar incumbent
    chain can visit (module docstring, property 3) — then runs the
    literal scalar comparisons over the shortlist in sweep order.
    """
    prefix_max = np.maximum.accumulate(est_rate)
    slack = (est_rate.size + 4) * _BAND
    shortlist = np.flatnonzero(est_rate >= prefix_max * (1.0 - slack))
    best = int(shortlist[0])  # index 0 always holds its own prefix max
    for j in shortlist[1:]:
        j = int(j)
        rate_c = float(est_rate[j])
        rate_i = float(est_rate[best])
        if rate_c > rate_i * (1.0 + _BAND):
            best = j
        elif rate_c < rate_i * (1.0 - _BAND):
            continue
        elif float(ppw[j]) > float(ppw[best]):
            best = j
    return best


@dataclass
class PlanRequest:
    """One application's (or MP-HARS partition's) planning inputs."""

    spec: PlatformSpec
    current: SystemState
    observed_rate: float
    n_threads: int
    target: PerformanceTarget
    space: "SearchSpace"
    estimation: "EstimationLayer"
    candidate_filter: Optional[Callable[[SystemState, SystemState], bool]] = None
    guard_filter: Optional[Callable[[SystemState, SystemState], bool]] = None


@dataclass
class PlanService:
    """The engine's batch-plan hook (``Simulation.plan_service``).

    Managers route their plans through the service so batch
    sizes are metered for telemetry (``planner_batch_apps``);
    :meth:`plan_many` plans a whole roster of apps/partitions in one
    call against their shared tensors.  Requests are processed in
    submission order: each plan's result is independent of the others
    (planning never mutates shared state — actuation does, between
    cycles), so the batch is bit-identical to sequential calls.
    """

    plans: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    def plan(self, **kwargs: Any) -> SearchResult:
        """Plan a single app (a batch of one)."""
        self.plans += 1
        self.batch_sizes.append(1)
        return batch_next_sys_state(**kwargs)

    def plan_many(self, requests: Sequence[PlanRequest]) -> List[SearchResult]:
        """Plan every request against the shared tensor store."""
        if not requests:
            return []
        self.plans += len(requests)
        self.batch_sizes.append(len(requests))
        return [
            batch_next_sys_state(
                spec=request.spec,
                current=request.current,
                observed_rate=request.observed_rate,
                n_threads=request.n_threads,
                target=request.target,
                space=request.space,
                estimation=request.estimation,
                candidate_filter=request.candidate_filter,
                guard_filter=request.guard_filter,
            )
            for request in requests
        ]
