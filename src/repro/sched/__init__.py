"""OS scheduler models (Linux HMP GTS and the placement interface)."""

from repro.sched.base import Placement, Scheduler
from repro.sched.gts import GtsScheduler
from repro.sched.load_tracking import (
    DOWN_MIGRATION_THRESHOLD,
    UP_MIGRATION_THRESHOLD,
    prefers_big,
    validate_thresholds,
)

__all__ = [
    "DOWN_MIGRATION_THRESHOLD",
    "GtsScheduler",
    "Placement",
    "Scheduler",
    "UP_MIGRATION_THRESHOLD",
    "prefers_big",
    "validate_thresholds",
]
