"""Telemetry exporters: JSONL, Prometheus text format, CSV/summary.

All three exporters are pure functions over a registry
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` (and, where
it makes sense, a :class:`~repro.sim.tracing.TraceRecorder`), so they
can run after the simulation without touching it.  The JSONL and
Prometheus formats are *round-trippable*: ``snapshot_from_jsonl``
reconstructs the exact snapshot dict, and ``parse_prometheus`` recovers
the same flat samples ``flatten_snapshot`` produces — the exporter
tests and ``bench_telemetry_overhead`` assert both.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.tracing import TraceRecorder
from repro.telemetry.registry import SNAPSHOT_SCHEMA, flatten_snapshot

# -- JSONL ---------------------------------------------------------------------


def snapshot_to_jsonl(snapshot: Dict[str, Any]) -> str:
    """One JSON record per line: a header, then instruments and series.

    The stream is self-describing (every line carries a ``record``
    discriminator) and ordered exactly like the snapshot, so the reader
    reconstructs a byte-identical snapshot dict.
    """
    lines: List[str] = [
        json.dumps(
            {"record": "header", "schema": snapshot["schema"]},
            sort_keys=True,
        )
    ]
    for entry in snapshot["instruments"]:
        declaration = {
            "record": "instrument",
            "name": entry["name"],
            "kind": entry["kind"],
            "help": entry["help"],
        }
        if "buckets" in entry:
            declaration["buckets"] = entry["buckets"]
        lines.append(json.dumps(declaration, sort_keys=True))
        for row in entry["series"]:
            lines.append(
                json.dumps(
                    {"record": "series", "name": entry["name"], **row},
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + "\n"


def snapshot_from_jsonl(text: str) -> Dict[str, Any]:
    """Inverse of :func:`snapshot_to_jsonl`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError("empty JSONL telemetry stream")
    header = json.loads(lines[0])
    if header.get("record") != "header":
        raise ConfigurationError("JSONL stream must start with a header")
    if header.get("schema") != SNAPSHOT_SCHEMA:
        raise ConfigurationError(
            f"unsupported telemetry schema {header.get('schema')!r} "
            f"(this build reads version {SNAPSHOT_SCHEMA})"
        )
    instruments: List[Dict[str, Any]] = []
    for line in lines[1:]:
        record = json.loads(line)
        tag = record.pop("record", None)
        if tag == "instrument":
            record["series"] = []
            instruments.append(record)
        elif tag == "series":
            name = record.pop("name", None)
            if not instruments or instruments[-1]["name"] != name:
                raise ConfigurationError(
                    f"series line for {name!r} outside its instrument block"
                )
            instruments[-1]["series"].append(record)
        else:
            raise ConfigurationError(f"unknown JSONL record {tag!r}")
    return {"schema": header["schema"], "instruments": instruments}


def write_jsonl(snapshot: Dict[str, Any], path: str) -> None:
    """Write the JSONL stream to disk."""
    with open(path, "w") as handle:
        handle.write(snapshot_to_jsonl(snapshot))


def read_jsonl(path: str) -> Dict[str, Any]:
    """Read a JSONL stream back into a snapshot dict."""
    with open(path) as handle:
        return snapshot_from_jsonl(handle.read())


# -- Prometheus text format ----------------------------------------------------

#: How instrument kinds map onto Prometheus metric types.  Timers have
#: no native type, so their three derived samples export as gauges.
_PROM_TYPES = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """HELP-line escaping per the exposition format (``\\`` and ``\\n``).

    Help text is free-form but the format is line-oriented: an unescaped
    newline would split the comment mid-way and leave a half-line the
    parser then tries to read as a sample.
    """
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


def snapshot_to_prometheus(
    snapshot: Dict[str, Any],
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Prometheus exposition text for every sample in the snapshot.

    ``extra_labels`` are merged into every sample's label set — the ACP
    daemon uses this to stamp each tenant's metrics with its session id
    so multi-session scrapes stay disjoint.
    """
    lines: List[str] = []
    for entry in snapshot["instruments"]:
        name, kind = entry["name"], entry["kind"]
        if entry["help"]:
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {name} {_PROM_TYPES.get(kind, 'gauge')}")
        for row in entry["series"]:
            labels = dict(row["labels"])
            if extra_labels:
                labels.update(extra_labels)
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(row['value'])}"
                )
            elif kind == "histogram":
                bounds = [*entry["buckets"], float("inf")]
                for bound, count in zip(bounds, row["counts"]):
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    bucket_labels = {**labels, "le": le}
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{_format_value(count)}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(row['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} "
                    f"{_format_value(row['count'])}"
                )
            else:  # timer
                for suffix in ("count", "sum_s", "max_s"):
                    lines.append(
                        f"{name}_{suffix}{_format_labels(labels)} "
                        f"{_format_value(row[suffix])}"
                    )
    return "\n".join(lines) + "\n"


def parse_prometheus(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back to flat ``{(name, labels): value}``.

    Exactly the representation :func:`~repro.telemetry.registry.flatten_snapshot`
    yields, which is what the round-trip tests compare.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels: Dict[str, str] = {}
            for part in _split_labels(label_text):
                key, _, raw = part.partition("=")
                # Remove exactly the two delimiting quotes.  str.strip('"')
                # would also eat an *escaped* quote at the end of the
                # value (serialized ``"a\""``), corrupting round-trips of
                # label values that end in a quote character.
                raw = raw.strip()
                if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
                    raw = raw[1:-1]
                labels[key.strip()] = _unescape_label(raw)
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
        value_text = value_text.strip()
        value = float("inf") if value_text == "+Inf" else float(value_text)
        samples[(name.strip(), tuple(sorted(labels.items())))] = value
    return samples


def _split_labels(label_text: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    part: List[str] = []
    quoted = False
    i = 0
    while i < len(label_text):
        ch = label_text[i]
        if ch == "\\" and quoted:
            part.append(label_text[i : i + 2])
            i += 2
            continue
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            if part:
                yield "".join(part)
                part = []
        else:
            part.append(ch)
        i += 1
    if part:
        yield "".join(part)


# -- CSV / summary table -------------------------------------------------------


def snapshot_to_csv(snapshot: Dict[str, Any]) -> str:
    """Flat samples as ``sample,labels,value`` CSV rows."""
    lines = ["sample,labels,value"]
    flat = flatten_snapshot(snapshot)
    for (name, labels) in sorted(flat):
        label_text = ";".join(f"{k}={v}" for k, v in labels)
        lines.append(f"{name},{label_text},{_format_value(flat[(name, labels)])}")
    return "\n".join(lines) + "\n"


def summary_table(snapshot: Dict[str, Any]) -> str:
    """Aligned human-readable table of every scalar sample."""
    # Imported lazily: report lives in the experiments package, whose
    # __init__ pulls in the runner (which imports the telemetry hub).
    from repro.experiments.report import format_table

    flat = flatten_snapshot(snapshot)
    rows: List[List[object]] = []
    for (name, labels) in sorted(flat):
        label_text = " ".join(f"{k}={v}" for k, v in labels) or "-"
        rows.append([name, label_text, float(flat[(name, labels)])])
    if not rows:
        return "(no telemetry recorded)"
    return format_table(
        ["sample", "labels", "value"], rows, float_format="{:.6g}"
    )


def trace_to_csv(trace: TraceRecorder) -> str:
    """Per-app behaviour series as CSV, one row per trace point.

    Uses :meth:`TraceRecorder.columns` so the exporter follows the
    recorder's schema instead of hard-coding it.
    """
    columns = trace.columns()
    lines = ["app,time_s,hb_index," + ",".join(columns)]
    for app_name in sorted(trace.app_names):
        for point in trace.points(app_name):
            cells = [app_name, repr(point.time_s), str(point.hb_index)]
            for column in columns:
                value = getattr(point, column)
                cells.append("" if value is None else repr(float(value)))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
