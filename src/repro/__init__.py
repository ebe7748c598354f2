"""HARS reproduction: a heterogeneity-aware runtime system for
self-adaptive multithreaded applications (Yun, DAC'15 / UNIST thesis).

Layout:

* :mod:`repro.platform`   — HMP hardware model (ODROID-XU3 substrate)
* :mod:`repro.sim`        — discrete-time execution engine
* :mod:`repro.sched`      — Linux GTS scheduler model
* :mod:`repro.heartbeats` — Application Heartbeats framework
* :mod:`repro.workloads`  — synthetic PARSEC-like benchmarks
* :mod:`repro.core`       — HARS itself (estimators, search, manager)
* :mod:`repro.mphars`     — MP-HARS multi-application extension
* :mod:`repro.baselines`  — baseline and static-optimal versions
* :mod:`repro.fleet`      — fleet-scale request-driven serving
* :mod:`repro.telemetry`  — metrics registry, spans, and exporters
* :mod:`repro.acp`        — the out-of-process adaptation control plane
* :mod:`repro.experiments`— every table/figure of the evaluation

The names re-exported here (``__all__``) are the *stable* surface — a
script needs only ``import repro`` to configure, run, and observe an
experiment (see ``examples/quickstart.py``).  Everything else is
internal layering and may move between releases.
"""

from repro.experiments.runner import RunConfig, RunOutcome, RunShape, run
from repro.acp.chaos import AcpFaultConfig
from repro.acp.client import AcpClient, RetryPolicy, SessionHandle
from repro.faults import FaultConfig
from repro.fleet import FleetConfig, FleetFaultConfig, ResilienceConfig
from repro.guardrails import GuardrailConfig
from repro.sim.tracing import TraceRecorder
from repro.supervision import SupervisorConfig
from repro.telemetry import MetricsRegistry, TelemetryConfig

__version__ = "2.0.0"

__all__ = [
    "AcpClient",
    "AcpFaultConfig",
    "FaultConfig",
    "FleetConfig",
    "FleetFaultConfig",
    "GuardrailConfig",
    "MetricsRegistry",
    "RunConfig",
    "RunOutcome",
    "ResilienceConfig",
    "RetryPolicy",
    "RunShape",
    "SessionHandle",
    "SupervisorConfig",
    "TelemetryConfig",
    "TraceRecorder",
    "__version__",
    "run",
]
