"""Power-model calibration: fit the linear estimator from profiled data.

The paper constructs its power estimator's coefficients by linear
regression over sensor data collected while the microbenchmark sweeps
core count, frequency and utilization (Section 3.1.2).  This module runs
that sweep (:func:`repro.workloads.microbench.profile_power`) and fits
one ``(α, β)`` pair per (cluster, frequency) with ordinary least squares
on ``P ≈ α · (C_used · U) + β``.

Calibration is deterministic for a given platform spec, so results are
memoized per spec name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.power_estimator import LinearCoefficients, PowerEstimator
from repro.errors import CalibrationError
from repro.platform.spec import PlatformSpec
from repro.workloads.microbench import ProfilePoint, profile_power

_CACHE: Dict[str, PowerEstimator] = {}

#: Sensor-observation time per operating point.  One second (≈ 4 sensor
#: samples) is plenty because the simulated microbenchmark holds
#: utilization perfectly steady.
_DWELL_S = 1.0


def fit_coefficients(
    points: Iterable[ProfilePoint],
) -> Dict[Tuple[str, int], LinearCoefficients]:
    """Least-squares fit per (cluster, frequency) group.

    Raises :class:`CalibrationError` if any group has fewer than two
    distinct ``C_used · U`` values (an unfittable line).
    """
    groups: Dict[Tuple[str, int], List[ProfilePoint]] = {}
    for point in points:
        groups.setdefault((point.cluster, point.freq_mhz), []).append(point)
    if not groups:
        raise CalibrationError("no profile points to fit")

    fitted: Dict[Tuple[str, int], LinearCoefficients] = {}
    for key, group in groups.items():
        x = np.array([p.cores_used * p.utilization for p in group])
        y = np.array([p.watts for p in group])
        if len(np.unique(x)) < 2:
            raise CalibrationError(
                f"{key}: need at least two distinct load levels to fit"
            )
        design = np.vstack([x, np.ones_like(x)]).T
        (alpha, beta), residuals, _, _ = np.linalg.lstsq(design, y, rcond=None)
        ss_total = float(((y - y.mean()) ** 2).sum())
        ss_residual = float(residuals[0]) if len(residuals) else 0.0
        r_squared = 1.0 - ss_residual / ss_total if ss_total > 0 else 1.0
        fitted[key] = LinearCoefficients(
            alpha=float(alpha), beta=float(beta), r_squared=r_squared
        )
    return fitted


def calibrate(spec: PlatformSpec) -> PowerEstimator:
    """Profile the platform and return a fitted :class:`PowerEstimator`
    (memoized per spec name)."""
    if spec.name not in _CACHE:
        points = profile_power(spec, dwell_s=_DWELL_S)
        _CACHE[spec.name] = PowerEstimator(fit_coefficients(points))
    return _CACHE[spec.name]


def clear_cache() -> None:
    """Drop memoized calibrations (tests that mutate specs use this)."""
    _CACHE.clear()
