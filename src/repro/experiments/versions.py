"""Version registry: the comparison systems of the evaluation.

Single-application versions (Figures 5.1–5.3):

* ``baseline`` — Linux GTS at max cores/frequency
* ``so``       — static optimal from the offline oracle sweep
* ``hars-i``   — incremental HARS, chunk scheduler
* ``hars-e``   — exhaustive HARS (m=n=4, d=7), chunk scheduler
* ``hars-ei``  — exhaustive HARS, interleaving scheduler
* ``hars-d<k>`` — Figure 5.3 sweep: HARS-EI box with distance ``k``

Multi-application versions (Figure 5.4) are registered by
:mod:`repro.experiments.runner` through the same interface.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.baselines.baseline import BaselineController
from repro.baselines.static_optimal import (
    StaticOptimalController,
    find_static_optimal_measured,
)
from repro.core.calibration import calibrate
from repro.core.manager import HarsManager
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E, HARS_EI, HARS_I, sweep_policy  # noqa: F401
from repro.errors import ConfigurationError
from repro.sim.controller import Controller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Figure 5.1 / 5.2 version order and display labels.
SINGLE_APP_VERSIONS: Tuple[str, ...] = (
    "baseline",
    "so",
    "hars-i",
    "hars-e",
    "hars-ei",
)

VERSION_LABELS: Dict[str, str] = {
    "baseline": "Baseline",
    "ondemand": "Ondemand",
    "so": "SO",
    "hars-i": "HARS-I",
    "hars-e": "HARS-E",
    "hars-ei": "HARS-EI",
}

_SWEEP_PATTERN = re.compile(r"^hars-d(\d+)$")

_POLICIES = {
    "hars-i": HARS_I,
    "hars-e": HARS_E,
    "hars-ei": HARS_EI,
}


def attach_single_app_version(
    sim: "Simulation",
    app: "SimApp",
    version: str,
    adapt_every: int = 5,
) -> List[Controller]:
    """Attach the controllers implementing ``version`` to a simulation.

    Returns the controllers added (the runner reads overhead and final
    state back from them).
    """
    if version == "baseline":
        return [sim.add_controller(BaselineController())]

    if version == "ondemand":
        # Beyond the paper: the Linux default governor as an extra
        # comparison point (GTS scheduling, utilization-driven DVFS).
        from repro.platform.governors import OndemandGovernor

        return [sim.add_controller(OndemandGovernor())]

    if version == "so":
        state = _static_optimal_state(sim.spec, app)
        controller = StaticOptimalController(app.name, state)
        return [sim.add_controller(controller)]

    policy = _POLICIES.get(version)
    if policy is None:
        match = _SWEEP_PATTERN.match(version)
        if match:
            policy = sweep_policy(int(match.group(1)))
        elif version in _MULTI_APP_NAMES:
            raise ConfigurationError(
                f"{version!r} is a co-run version: it needs two or more "
                "shapes (on the CLI, two or more comma-separated --bench)"
            )
        else:
            raise ConfigurationError(
                f"unknown version {version!r}; valid: {_SINGLE_APP_NAMES}"
            )
    manager = HarsManager(
        app_name=app.name,
        policy=policy,
        perf_estimator=PerformanceEstimator(),
        power_estimator=calibrate(sim.spec),
        adapt_every=adapt_every,
    )
    return [sim.add_controller(manager)]


#: Figure 5.4 version order and display labels.
MULTI_APP_VERSIONS: Tuple[str, ...] = (
    "baseline",
    "cons-i",
    "mp-hars-i",
    "mp-hars-e",
)

MULTI_VERSION_LABELS: Dict[str, str] = {
    "baseline": "Baseline",
    "cons-i": "CONS-I",
    "mp-hars-i": "MP-HARS-I",
    "mp-hars-e": "MP-HARS-E",
    "mp-hars-ei": "MP-HARS-EI",
}

#: Every name each registry accepts, for error messages.
_SINGLE_APP_NAMES = [*VERSION_LABELS, "hars-d<k>"]
_MULTI_APP_NAMES = list(MULTI_VERSION_LABELS)


def attach_multi_app_version(
    sim: "Simulation",
    version: str,
    adapt_every: int = 5,
) -> List[Controller]:
    """Attach the multi-application controllers for ``version``."""
    from repro.mphars.consi import ConsIController
    from repro.mphars.manager import MpHarsManager

    if version == "baseline":
        return [sim.add_controller(BaselineController())]
    if version == "cons-i":
        return [sim.add_controller(ConsIController(adapt_every=adapt_every))]
    if version in ("mp-hars-i", "mp-hars-e", "mp-hars-ei"):
        policy = {
            "mp-hars-i": HARS_I,
            "mp-hars-e": HARS_E,
            "mp-hars-ei": HARS_EI,  # beyond the paper: interleaved MP
        }[version]
        manager = MpHarsManager(
            policy=policy,
            perf_estimator=PerformanceEstimator(),
            power_estimator=calibrate(sim.spec),
            adapt_every=adapt_every,
        )
        return [sim.add_controller(manager)]
    if version in _SINGLE_APP_NAMES or _SWEEP_PATTERN.match(version):
        raise ConfigurationError(
            f"{version!r} is a single-app version: it takes one shape "
            "(on the CLI, one --bench)"
        )
    raise ConfigurationError(
        f"unknown multi-app version {version!r}; valid: {_MULTI_APP_NAMES}"
    )


_SO_CACHE: Dict[Tuple, object] = {}


def _static_optimal_state(spec, app):
    """Memoized offline-simulation SO sweep for one (platform, app)."""
    from repro.workloads.parsec import make_benchmark, resolve_name

    bench = resolve_name(app.name)
    target = app.target
    key = (
        spec.name,
        bench,
        app.n_threads,
        round(target.min_rate, 6),
        round(target.avg_rate, 6),
        round(target.max_rate, 6),
    )
    if key not in _SO_CACHE:
        _SO_CACHE[key] = find_static_optimal_measured(
            spec,
            lambda: make_benchmark(bench, n_threads=app.n_threads),
            target,
        )
    return _SO_CACHE[key]


def version_label(version: str) -> str:
    """Display label for a version id."""
    if version in VERSION_LABELS:
        return VERSION_LABELS[version]
    if version in MULTI_VERSION_LABELS:
        return MULTI_VERSION_LABELS[version]
    match = _SWEEP_PATTERN.match(version)
    if match:
        return f"HARS-EI(d={match.group(1)})"
    return version
