"""Seed-repetition statistics for experiment runs.

The paper reports single-run numbers; an open-source harness should
quantify run-to-run variation.  Workload noise is seeded, so repeating a
run over a seed set gives honest spread estimates: mean, sample standard
deviation, and a normal-approximation 95 % confidence interval of the
perf/watt metric per version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape, run
from repro.platform.spec import PlatformSpec, odroid_xu3


@dataclass(frozen=True)
class Spread:
    """Summary statistics of one metric over repeated seeded runs."""

    mean: float
    std: float
    n: int

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the normal-approximation 95 % interval."""
        if self.n < 2:
            return 0.0
        return 1.96 * self.std / math.sqrt(self.n)

    def summary(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95_half_width:.3f} (n={self.n})"


def spread_of(values: Sequence[float]) -> Spread:
    """Mean / sample std / count of a value list."""
    if not values:
        raise ConfigurationError("no values to summarize")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Spread(mean=mean, std=0.0, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Spread(mean=mean, std=math.sqrt(variance), n=n)


def repeat_single(
    version: str,
    shape: RunShape,
    seeds: Sequence[int],
    spec: Optional[PlatformSpec] = None,
) -> Tuple[Spread, List[float]]:
    """Run one (benchmark, version) across seeds; return the perf/watt
    spread and the raw values."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    spec = spec or odroid_xu3()
    values = []
    for seed in seeds:
        seeded = replace(shape, seed=seed)
        values.append(
            run(version, seeded, RunConfig(spec=spec)).metrics.perf_per_watt
        )
    return spread_of(values), values


def compare_with_spread(
    versions: Sequence[str],
    shape: RunShape,
    seeds: Sequence[int],
    spec: Optional[PlatformSpec] = None,
) -> Dict[str, Spread]:
    """Perf/watt spread per version on one benchmark shape."""
    return {
        version: repeat_single(version, shape, seeds, spec)[0]
        for version in versions
    }


def significantly_better(a: Spread, b: Spread) -> bool:
    """Whether ``a`` beats ``b`` beyond both 95 % intervals (a coarse
    two-sided check, adequate for figure-shape claims)."""
    return a.mean - a.ci95_half_width > b.mean + b.ci95_half_width
