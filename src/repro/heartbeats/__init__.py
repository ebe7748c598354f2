"""Application Heartbeats framework (Hoffmann et al., ICAC'10) substrate.

Applications emit a heartbeat per completed work unit; observers derive
application-level performance from windowed heartbeat rates and compare
it against a :class:`PerformanceTarget` window.
"""

from repro.heartbeats.monitor import (
    DEFAULT_RATE_WINDOW,
    HeartbeatMonitor,
    Observation,
)
from repro.heartbeats.record import Heartbeat, HeartbeatLog
from repro.heartbeats.targets import PerformanceTarget, Satisfaction

__all__ = [
    "DEFAULT_RATE_WINDOW",
    "Heartbeat",
    "HeartbeatLog",
    "HeartbeatMonitor",
    "Observation",
    "PerformanceTarget",
    "Satisfaction",
]
