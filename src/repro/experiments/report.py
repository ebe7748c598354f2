"""Plain-text rendering of experiment results.

Everything the paper shows as a figure is reproduced here as aligned
text: per-benchmark tables (one column per version), simple horizontal
bar charts, and sampled behaviour-trace listings.  The renderers are
pure functions over the result dataclasses so they are easy to test.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError

#: Width of the bar area in bar charts.
_BAR_WIDTH = 40


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Align a table of mixed str/float cells as monospace text."""
    if not headers:
        raise ConfigurationError("table needs headers")
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        rendered.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(r[col]) for r in rendered) for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def bar_chart(values: Mapping[str, float], title: str = "") -> str:
    """Horizontal bar chart, one row per labelled value, scaled to the
    largest."""
    if not values:
        raise ConfigurationError("bar chart needs values")
    peak = max(values.values())
    if peak <= 0:
        raise ConfigurationError("bar chart needs a positive maximum")
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        filled = int(round(_BAR_WIDTH * max(0.0, value) / peak))
        bar = "#" * filled
        lines.append(
            f"{label.rjust(label_width)} | {bar:<{_BAR_WIDTH}} "
            f"{value:.2f}"
        )
    return "\n".join(lines)


def grouped_bars(
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    data: Mapping[str, Mapping[str, float]],
    title: str = "",
) -> str:
    """Figure-style grouped table: rows = benchmarks, columns = versions."""
    rows = []
    for row_label in row_labels:
        if row_label not in data:
            raise ConfigurationError(f"missing row {row_label!r}")
        row: List[object] = [row_label]
        for column in column_labels:
            row.append(float(data[row_label][column]))
        rows.append(row)
    table = format_table(["benchmark", *column_labels], rows)
    return f"{title}\n{table}" if title else table


def sampled_series(
    series: Sequence[Tuple[int, float]], max_points: int = 25
) -> str:
    """Condense a long (index, value) series to at most ``max_points``."""
    if not series:
        return "(empty series)"
    step = max(1, len(series) // max_points)
    sampled = list(series)[::step]
    return "  ".join(
        f"{index}:{value:.2f}" for index, value in sampled
    )
