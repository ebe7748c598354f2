"""Zero-dependency metrics and tracing for the HARS reproduction.

The runtime's whole argument is quantitative — normalized performance
per watt, adaptation latency, estimator accuracy — so the kernel's
internals (search pruning, estimation-cache hits, MAPE phase costs)
need to be observable *outside* tests.  This package provides:

* :mod:`repro.telemetry.instruments` — typed instruments (``Counter``,
  ``Gauge``, fixed-bucket ``Histogram``, sim-clock ``Timer``);
* :mod:`repro.telemetry.registry` — the :class:`MetricsRegistry`
  namespace with deterministic snapshots;
* :mod:`repro.telemetry.hub` — built-in instrumentation wired through
  the kernel bus, the MAPE loops, Algorithm 2, and the estimation
  layer (:class:`TelemetryHub`, enabled per run via
  :class:`~repro.experiments.runner.RunConfig` ``telemetry=``);
* :mod:`repro.telemetry.exporters` — JSONL, Prometheus text format,
  and CSV/summary exporters, all round-trippable.

Telemetry is strictly observation-only: a telemetry-on run is
bit-identical (metrics *and* traces) to a telemetry-off run, with
overhead measured by ``benchmarks/bench_telemetry_overhead.py``.
"""

from repro.telemetry.exporters import (
    parse_prometheus,
    read_jsonl,
    snapshot_from_jsonl,
    snapshot_to_csv,
    snapshot_to_jsonl,
    snapshot_to_prometheus,
    summary_table,
    trace_to_csv,
    write_jsonl,
)
from repro.telemetry.hub import MapeTelemetry, TelemetryHub
from repro.telemetry.instruments import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Timer,
)
from repro.telemetry.registry import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    flatten_snapshot,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MapeTelemetry",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "TelemetryHub",
    "Timer",
    "flatten_snapshot",
    "parse_prometheus",
    "read_jsonl",
    "snapshot_from_jsonl",
    "snapshot_to_csv",
    "snapshot_to_jsonl",
    "snapshot_to_prometheus",
    "summary_table",
    "trace_to_csv",
    "write_jsonl",
]
