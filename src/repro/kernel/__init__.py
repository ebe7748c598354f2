"""Layered runtime kernel.

The kernel splits the runtime into four narrow layers:

1. :mod:`repro.kernel.bus` — a typed event bus the engine publishes on
   (``TickStart``, ``HeartbeatEmitted``, ``StateApplied``,
   ``PowerSample``, ``AppFinished``); controllers attach to the engine
   only through bus subscriptions.
2. :mod:`repro.kernel.mape` — the MAPE-K control plane: Monitor,
   Analyzer, Planner and Executor stages over a shared
   :class:`~repro.kernel.mape.Knowledge` store.  HARS-I/E/EI, MP-HARS
   and the Kalman/escape/ratio-learning extensions are all plugins of
   these stages.
3. :mod:`repro.kernel.estimation` — a caching layer over the
   performance and power estimators; Algorithm 2 re-evaluates the same
   candidates every adaptation period, so this is the hottest
   decision-side path.  :mod:`repro.kernel.batchplan` sits beside it:
   the planner that runs Algorithm 2 as array ops over precomputed
   state-space tensors, bit-identical to the scalar oracle in
   :mod:`repro.core.search`.
4. :mod:`repro.kernel.actuation` — the actuation façade; Execute
   stages act on DVFS and thread placement only through it, and every
   application of a system state is announced as ``StateApplied``.
"""

from repro.kernel.actuation import Actuator
from repro.kernel.bus import (
    AppFinished,
    Event,
    EventBus,
    HeartbeatEmitted,
    PowerSample,
    StateApplied,
    TickStart,
)

#: Estimation and MAPE-K names resolved lazily (PEP 562): those modules
#: sit above repro.core in the layer stack, while the bus and actuator
#: sit below it — importing them eagerly here would make
#: ``sim.controller → kernel.bus`` circular.
_LAZY = {
    "CachedPerformanceEstimator": "repro.kernel.estimation",
    "CachedPowerEstimator": "repro.kernel.estimation",
    "EstimationLayer": "repro.kernel.estimation",
    "CandidateBox": "repro.kernel.batchplan",
    "PlanRequest": "repro.kernel.batchplan",
    "PlanService": "repro.kernel.batchplan",
    "StateSpaceTensor": "repro.kernel.batchplan",
    "batch_next_sys_state": "repro.kernel.batchplan",
    "Analysis": "repro.kernel.mape",
    "Analyzer": "repro.kernel.mape",
    "CycleContext": "repro.kernel.mape",
    "Executor": "repro.kernel.mape",
    "Knowledge": "repro.kernel.mape",
    "MapeLoop": "repro.kernel.mape",
    "Monitor": "repro.kernel.mape",
    "Observation": "repro.kernel.mape",
    "PlanResult": "repro.kernel.mape",
    "SearchPlanner": "repro.kernel.mape",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

__all__ = [
    "Actuator",
    "Analysis",
    "Analyzer",
    "AppFinished",
    "CachedPerformanceEstimator",
    "CachedPowerEstimator",
    "CandidateBox",
    "CycleContext",
    "PlanRequest",
    "PlanService",
    "StateSpaceTensor",
    "batch_next_sys_state",
    "EstimationLayer",
    "Event",
    "EventBus",
    "Executor",
    "HeartbeatEmitted",
    "Knowledge",
    "MapeLoop",
    "Monitor",
    "Observation",
    "PlanResult",
    "PowerSample",
    "SearchPlanner",
    "StateApplied",
    "TickStart",
]
