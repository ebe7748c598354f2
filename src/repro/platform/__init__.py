"""HMP hardware platform model (the ODROID-XU3 substrate).

Public surface:

* :class:`PlatformSpec` / :func:`odroid_xu3` — immutable machine description
* :class:`Machine` — mutable runtime state: cluster frequencies (the
  ``scaling_setspeed`` stand-in, validated against the DVFS table) and
  core ids
* :class:`PowerModel` / :class:`PowerSensor` — ground-truth power + sensors
* :mod:`repro.platform.topology` — cpuset helpers
"""

from repro.platform.cluster import BIG, LITTLE, ClusterSpec
from repro.platform.core_types import (
    BASELINE_FREQ_MHZ,
    CoreTypeSpec,
    cortex_a7,
    cortex_a15,
)
from repro.platform.governors import (
    GOVERNORS,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.platform.machine import Machine
from repro.platform.power import IDLE, CoreActivity, PowerModel
from repro.platform.sensor import (
    DEFAULT_SAMPLE_PERIOD_S,
    PowerSample,
    PowerSensor,
)
from repro.platform.spec import PlatformSpec, odroid_xu3, small_test_platform

__all__ = [
    "BASELINE_FREQ_MHZ",
    "BIG",
    "LITTLE",
    "DEFAULT_SAMPLE_PERIOD_S",
    "ClusterSpec",
    "CoreActivity",
    "CoreTypeSpec",
    "GOVERNORS",
    "IDLE",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "Machine",
    "PlatformSpec",
    "PowerModel",
    "PowerSample",
    "PowerSensor",
    "cortex_a7",
    "cortex_a15",
    "odroid_xu3",
    "small_test_platform",
]
