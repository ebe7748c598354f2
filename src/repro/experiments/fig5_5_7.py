"""Figures 5.5–5.7: behaviour graphs of case 4 (bodytrack + fluidanimate).

For each of CONS-I, MP-HARS-I and MP-HARS-E, the paper plots — per
application, against the heartbeat index — the heartbeat rate (HPS) with
the target window, the allocated big/little core counts, and both cluster
frequencies.  This module reruns case 4 with tracing and exposes the
series, plus the specific observations the paper makes:

* CONS-I (Fig 5.5): fluidanimate largely exceeds its target window once
  bodytrack achieves, because the conservative global model cannot
  decrease;
* MP-HARS-I (Fig 5.6): both applications track their own windows;
* MP-HARS-E (Fig 5.7): bodytrack prefers little cores (no big core),
  fluidanimate holds big cores at a reduced frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import sampled_series
from repro.experiments.runner import RunConfig, RunOutcome, RunShape, run
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import PlatformSpec, odroid_xu3
from repro.sim.tracing import TraceRecorder
from repro.units import mean

#: The versions whose behaviour the three figures show.
BEHAVIOUR_VERSIONS: Tuple[str, ...] = ("cons-i", "mp-hars-i", "mp-hars-e")

#: Case 4's pair.
CASE4: Tuple[str, str] = ("bodytrack", "fluidanimate")

#: Points :meth:`BehaviourRun.render` samples from each series.
RENDER_POINTS = 20


@dataclass
class BehaviourRun:
    """One version's traced case-4 run."""

    version: str
    outcome: RunOutcome
    targets: Dict[str, PerformanceTarget] = field(default_factory=dict)

    @property
    def trace(self) -> TraceRecorder:
        return self.outcome.trace

    def app_names(self) -> Tuple[str, ...]:
        return self.trace.app_names

    def steady_mean(self, app_name: str, column: str, skip: int = 50) -> float:
        """Mean of a trace column after the adaptation transient."""
        series = self.trace.series(app_name, column)
        tail = [v for idx, v in series if idx >= skip]
        return mean(tail if tail else [v for _, v in series])

    def overshoot_fraction(self, app_name: str, skip: int = 50) -> float:
        """Fraction of post-transient measurements above ``t.max``."""
        target = self.targets[app_name]
        series = self.trace.series(app_name, "rate")
        tail = [v for idx, v in series if idx >= skip]
        if not tail:
            return 0.0
        return sum(1 for v in tail if v > target.max_rate) / len(tail)

    def render(self) -> str:
        lines = [f"== {self.version}: case 4 behaviour =="]
        for app_name in self.app_names():
            target = self.targets[app_name]
            lines.append(
                f"-- {app_name} (window {target.min_rate:.2f}"
                f"..{target.max_rate:.2f} HPS)"
            )
            for column, label in (
                ("rate", "HPS"),
                ("big_cores", "B_Core"),
                ("little_cores", "L_Core"),
                ("big_freq_mhz", "B_Freq"),
                ("little_freq_mhz", "L_Freq"),
            ):
                series = self.trace.series(app_name, column)
                lines.append(
                    f"   {label:7s} {sampled_series(series, RENDER_POINTS)}"
                )
        return "\n".join(lines)


def run_behaviour(
    version: str,
    spec: Optional[PlatformSpec] = None,
    pair: Tuple[str, str] = CASE4,
    n_units: Optional[int] = None,
) -> BehaviourRun:
    """Trace one version's case-4 run."""
    spec = spec or odroid_xu3()
    shapes = [RunShape(benchmark=name, n_units=n_units) for name in pair]
    outcome = run(version, shapes, RunConfig(spec=spec))
    behaviour = BehaviourRun(version=version, outcome=outcome)
    for app in outcome.metrics.apps:
        behaviour.targets[app.app_name] = PerformanceTarget(
            app.target_min, app.target_avg, app.target_max
        )
    return behaviour


def run_fig5_5_7(n_units: Optional[int] = None) -> Dict[str, BehaviourRun]:
    """All three behaviour figures: version → traced run."""
    return {
        version: run_behaviour(version, n_units=n_units)
        for version in BEHAVIOUR_VERSIONS
    }
