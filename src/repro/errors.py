"""Exception hierarchy for the HARS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-types mirror the
major subsystems (platform model, simulation engine, runtime managers).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with inconsistent parameters."""


class PlatformError(ReproError):
    """Raised for invalid operations on the hardware platform model."""


class FrequencyError(PlatformError):
    """Raised when a requested frequency is outside a cluster's DVFS table."""


class SimulationError(ReproError):
    """Raised by the simulation engine for invalid run-time operations."""


class SchedulingError(ReproError):
    """Raised when a scheduler receives threads it cannot place."""


class EstimationError(ReproError):
    """Raised by HARS estimators for states outside the model's domain."""


class CalibrationError(ReproError):
    """Raised when power-model calibration cannot fit the profiled data."""


class AllocationError(ReproError):
    """Raised when MP-HARS core allocation cannot satisfy a request."""
