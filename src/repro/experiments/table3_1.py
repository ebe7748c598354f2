"""Table 3.1: thread assignment to the big and little clusters.

Regenerates the paper's assignment table for the evaluation platform
(``C_B = C_L = 4``, ``r = r0 = 1.5``) over a range of thread counts, with
the condition row each ``T`` falls into — a direct check of the
assignment logic the performance estimator builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.assignment import ThreadAssignment, assign_threads
from repro.core.perf_estimator import DEFAULT_R0
from repro.errors import ConfigurationError
from repro.experiments.report import format_table


@dataclass(frozen=True)
class AssignmentRow:
    """One table row: thread count, condition regime, and the split."""

    n_threads: int
    regime: str
    assignment: ThreadAssignment


def regime_of(n_threads: int, c_big: int, c_little: int, ratio: float) -> str:
    """Which of the four Table 3.1 conditions applies."""
    if n_threads <= 0:
        raise ConfigurationError("thread count must be positive")
    knee = ratio * c_big
    if n_threads <= c_big:
        return "T <= C_B"
    if n_threads <= knee:
        return "C_B < T <= r*C_B"
    if n_threads <= knee + c_little:
        return "r*C_B < T <= r*C_B + C_L"
    return "r*C_B + C_L < T"


def build_table(max_threads: int = 16) -> List[AssignmentRow]:
    """Assignment rows for ``T = 1 .. max_threads`` on the XU3's four big
    and four little cores at the paper's r0 = 3/2."""
    c_big, c_little, ratio = 4, 4, DEFAULT_R0
    rows = []
    for n_threads in range(1, max_threads + 1):
        rows.append(
            AssignmentRow(
                n_threads=n_threads,
                regime=regime_of(n_threads, c_big, c_little, ratio),
                assignment=assign_threads(n_threads, c_big, c_little, ratio),
            )
        )
    return rows


def render_table(rows: List[AssignmentRow]) -> str:
    """The table as text, matching the paper's column layout."""
    body = [
        [
            row.n_threads,
            row.assignment.t_big,
            row.assignment.t_little,
            row.assignment.used_big,
            row.assignment.used_little,
            row.regime,
        ]
        for row in rows
    ]
    return format_table(
        ["T", "T_B", "T_L", "C_B,U", "C_L,U", "regime"], body
    )
