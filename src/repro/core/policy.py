"""HARS version presets: the search-space policies of Section 3.1.3.

* **HARS-I** — incremental: ``m=1, n=0, d=1`` when the application
  overperforms (only shrink) and ``m=0, n=1, d=1`` when it underperforms
  (only grow).  Cheap, oscillation-resistant, but slow to converge and
  prone to local optima.
* **HARS-E** — exhaustive: ``m=4, n=4, d=7``, chunk-based scheduler.
* **HARS-EI** — HARS-E with the interleaving scheduler.

``sweep_policy`` builds the Figure 5.3 variants: the HARS-EI box with the
Manhattan distance ``d`` swept from 1 to 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schedulers import CHUNK, INTERLEAVED, POLICIES
from repro.errors import ConfigurationError
from repro.heartbeats.targets import Satisfaction


@dataclass(frozen=True)
class SearchSpace:
    """Algorithm 2's explorable-area parameters ``(m, n, d)``."""

    m: int
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ConfigurationError("m and n must be non-negative")
        if self.d <= 0:
            raise ConfigurationError("d must be positive")


@dataclass(frozen=True)
class HarsPolicy:
    """A named HARS version: search spaces + thread-scheduler choice."""

    name: str
    scheduler: str
    overperform_space: SearchSpace
    underperform_space: SearchSpace

    def __post_init__(self) -> None:
        if self.scheduler not in POLICIES:
            raise ConfigurationError(
                f"{self.name}: unknown scheduler {self.scheduler!r}"
            )

    def space_for(self, satisfaction: Satisfaction) -> SearchSpace:
        """Search space given the current satisfaction class.

        ``ACHIEVE`` never reaches the search (Algorithm 1 line 7 gates
        it), but returns the underperform space for robustness.
        """
        if satisfaction is Satisfaction.OVERPERF:
            return self.overperform_space
        return self.underperform_space


#: The exhaustive box used by HARS-E / HARS-EI (m = n = 4, d = 7).
_EXHAUSTIVE = SearchSpace(m=4, n=4, d=7)

HARS_I = HarsPolicy(
    name="HARS-I",
    scheduler=CHUNK,
    overperform_space=SearchSpace(m=1, n=0, d=1),
    underperform_space=SearchSpace(m=0, n=1, d=1),
)

HARS_E = HarsPolicy(
    name="HARS-E",
    scheduler=CHUNK,
    overperform_space=_EXHAUSTIVE,
    underperform_space=_EXHAUSTIVE,
)

HARS_EI = HarsPolicy(
    name="HARS-EI",
    scheduler=INTERLEAVED,
    overperform_space=_EXHAUSTIVE,
    underperform_space=_EXHAUSTIVE,
)

#: Version lookup by name.
POLICY_BY_NAME = {p.name: p for p in (HARS_I, HARS_E, HARS_EI)}


def sweep_policy(d: int) -> HarsPolicy:
    """Figure 5.3 variant: the exhaustive box with a custom distance."""
    space = SearchSpace(m=4, n=4, d=d)
    return HarsPolicy(
        name=f"HARS-sweep-d{d}",
        scheduler=INTERLEAVED,
        overperform_space=space,
        underperform_space=space,
    )
