"""OS scheduler model (Linux HMP GTS)."""

from repro.sched.gts import GtsScheduler, Placement
from repro.sched.load_tracking import (
    DOWN_MIGRATION_THRESHOLD,
    UP_MIGRATION_THRESHOLD,
    prefers_big,
)

__all__ = [
    "DOWN_MIGRATION_THRESHOLD",
    "GtsScheduler",
    "Placement",
    "UP_MIGRATION_THRESHOLD",
    "prefers_big",
]
