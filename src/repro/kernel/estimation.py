"""Cached estimation layer.

Algorithm 2 sweeps a neighbourhood of candidate states every adaptation
period, and consecutive periods sweep heavily-overlapping
neighbourhoods, so the same ``(state, n_threads)`` estimates are
recomputed over and over.  This layer memoizes them.

Caching is *exact*: the wrappers store the object the inner estimator
returned, so a cached lookup yields bit-identical floats to an uncached
call — determinism of every experiment metric is preserved.  The one
reformulation is ``estimate_rate``, which is recomputed from the two
cached capacities with the same expression the inner estimator uses
(``observed · cap_candidate / cap_current``), again bit-identical.

Swapping an estimator (online ratio learning refits r0; a recalibration
refits the power coefficients) invalidates the corresponding cache.

The planner's state-space tensors depend only on the model *values*
(the stock estimators' ``r0``/``f0``/``S_L,f0`` and fitted ``(α, β)``
table), the platform and the thread count — not on which layer asks.
A process-wide LRU memo keyed by exactly those values hands every
layer with equal models (every node of a fleet) the same read-only
tensor, so each is built once per model rather than once per manager.
Estimators of any other class have no value key and keep a per-layer
build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.core.perf_estimator import PerformanceEstimate, PerformanceEstimator
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState
from repro.errors import EstimationError

#: Most state-space tensors the process-wide memo keeps.  A fleet needs
#: one per (model pair, platform, thread count); ratio learning adds one
#: per distinct refit r0, which the LRU order retires first.
TENSOR_MEMO_SIZE = 32

_tensor_memo: "OrderedDict[Hashable, Any]" = OrderedDict()
# ACP daemons plan on session threads; the lock also makes concurrent
# misses on one key build it once.
_tensor_memo_lock = threading.Lock()


def _model_key(perf: Any, power: Any) -> Optional[Hashable]:
    """The value key of a stock model pair; None for any other class,
    whose estimates may depend on more than these values."""
    if type(perf) is not PerformanceEstimator or type(power) is not PowerEstimator:
        return None
    fits = ((point, power.coefficients(*point)) for point in power.fitted_points)
    coefficients = tuple((point, fit.alpha, fit.beta) for point, fit in fits)
    return ((perf.r0, perf.f0_mhz, perf.s_little_f0), coefficients)


def _build_tensor(spec, n_threads: int, perf: Any, power: Any):
    """The state-space tensor of raw ``perf``/``power``: the memo's for
    a stock pair (built on a memo miss), a fresh one for any other."""
    from repro.kernel.batchplan import StateSpaceTensor

    models = _model_key(perf, power)
    if models is None:
        return StateSpaceTensor.build(spec, n_threads, perf, power)
    # The spec's repr spells out every field (frozen dataclasses down to
    # the DVFS and voltage tables, floats round-tripping), so equal
    # reprs mean equal contents whatever the name.  PlatformSpec itself
    # is unhashable: its voltage tables are dicts.
    key = (models, repr(spec), n_threads)
    with _tensor_memo_lock:
        tensor = _tensor_memo.get(key)
        if tensor is not None:
            _tensor_memo.move_to_end(key)
            return tensor
        tensor = StateSpaceTensor.build(spec, n_threads, perf, power)
        _tensor_memo[key] = tensor
        if len(_tensor_memo) > TENSOR_MEMO_SIZE:
            _tensor_memo.popitem(last=False)
        return tensor


class CachedPerformanceEstimator:
    """Memoizing wrapper around a :class:`PerformanceEstimator`."""

    def __init__(self, inner: PerformanceEstimator):
        self.inner = inner
        self._cache: Dict[Tuple[SystemState, int], PerformanceEstimate] = {}
        self.hits = 0
        self.misses = 0

    def estimate(
        self, state: SystemState, n_threads: int
    ) -> PerformanceEstimate:
        key = (state, n_threads)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.inner.estimate(state, n_threads)
        self._cache[key] = result
        return result

    def estimate_rate(
        self,
        candidate: SystemState,
        current: SystemState,
        observed_rate: float,
        n_threads: int,
    ) -> float:
        if observed_rate <= 0:
            raise EstimationError("observed rate must be positive")
        cap_candidate = self.estimate(candidate, n_threads).capacity
        cap_current = self.estimate(current, n_threads).capacity
        return observed_rate * cap_candidate / cap_current

    def clear(self) -> None:
        self._cache.clear()

    def __getattr__(self, name: str) -> Any:
        # Everything else (r0, per_core_speeds, …) passes through.
        return getattr(self.inner, name)


class CachedPowerEstimator:
    """Memoizing wrapper around a :class:`PowerEstimator`.

    The power estimate depends on the state and on the performance
    estimate's used-core counts and utilizations, so the key captures
    exactly those inputs.
    """

    def __init__(self, inner: PowerEstimator):
        self.inner = inner
        self._cache: Dict[Tuple, float] = {}
        self.hits = 0
        self.misses = 0

    def estimate(self, state: SystemState, perf: PerformanceEstimate) -> float:
        key = (
            state,
            perf.assignment.used_big,
            perf.assignment.used_little,
            perf.util_big,
            perf.util_little,
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.inner.estimate(state, perf)
        self._cache[key] = result
        return result

    def clear(self) -> None:
        self._cache.clear()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class EstimationLayer:
    """The kernel's estimation layer: both cached estimators plus the
    swap/invalidation protocol the Knowledge-update plugins use."""

    def __init__(
        self,
        perf_estimator: PerformanceEstimator,
        power_estimator: PowerEstimator,
    ):
        self.perf = CachedPerformanceEstimator(perf_estimator)
        self.power = CachedPowerEstimator(power_estimator)
        # Hit/miss totals retired by estimator swaps: stats() reports
        # layer-lifetime counts, so a run that swaps models every
        # adaptation period (online ratio learning) still accounts for
        # every estimate it paid for.
        self._retired: Dict[str, int] = {
            "perf_hits": 0,
            "perf_misses": 0,
            "power_hits": 0,
            "power_misses": 0,
        }
        # State-space tensors for the planner, keyed by
        # (spec name, n_threads), in front of the process-wide memo.
        # They describe the *current* model pair, so every
        # swap/invalidation below drops them.  Build and reuse counts
        # are layer-lifetime, like the retired hit/miss totals: the
        # planner mostly bypasses the per-state memo, and these
        # counters are what stats() reports for it instead.
        self._tensors: Dict[Tuple[str, int], Any] = {}
        self.tensor_builds = 0
        self.tensor_reuses = 0

    def tensor(self, spec, n_threads: int):
        """The state-space tensor for the current models.

        Kept per layer by ``(spec name, n_threads)``.  On a per-layer
        miss a stock model pair takes the process-wide memo's tensor for
        its values (built there on a memo miss); any other pair is
        built for this layer alone.  Either way the miss counts as one
        ``tensor_builds`` — the layer's count never depends on what the
        process has already built.
        """
        key = (spec.name, n_threads)
        cached = self._tensors.get(key)
        if cached is not None:
            self.tensor_reuses += 1
            return cached
        # Tabulated through the raw estimators: a build must not warm
        # one layer's per-state memo, or stats() would depend on what
        # the process happened to build first.
        tensor = _build_tensor(spec, n_threads, self.perf.inner, self.power.inner)
        self._tensors[key] = tensor
        self.tensor_builds += 1
        return tensor

    def set_perf_estimator(self, estimator: PerformanceEstimator) -> None:
        """Replace the performance model (e.g. a refit r0) — the old
        cache entries no longer describe it, so they are dropped."""
        self._retired["perf_hits"] += self.perf.hits
        self._retired["perf_misses"] += self.perf.misses
        self.perf = CachedPerformanceEstimator(estimator)
        self._tensors.clear()

    def set_power_estimator(self, estimator: PowerEstimator) -> None:
        """Replace the power model (e.g. after recalibration)."""
        self._retired["power_hits"] += self.power.hits
        self._retired["power_misses"] += self.power.misses
        self.power = CachedPowerEstimator(estimator)
        self._tensors.clear()

    def invalidate(self) -> None:
        """Drop every cached estimate, keeping the current models."""
        self.perf.clear()
        self.power.clear()
        self._tensors.clear()

    def stats(self) -> Dict[str, int]:
        """Layer-lifetime counts, surviving estimator swaps.

        ``tensor_builds``/``tensor_reuses`` meter the planner's
        state-space tensors — its per-plan lookups do not touch the
        per-state memo, so without these the planner would look
        free in the cache accounting.  Both count this layer's lookups
        (a build is a per-layer miss), so they read the same whether
        the process-wide memo was cold or warm.
        """
        return {
            "perf_hits": self._retired["perf_hits"] + self.perf.hits,
            "perf_misses": self._retired["perf_misses"] + self.perf.misses,
            "power_hits": self._retired["power_hits"] + self.power.hits,
            "power_misses": self._retired["power_misses"] + self.power.misses,
            "tensor_builds": self.tensor_builds,
            "tensor_reuses": self.tensor_reuses,
        }
