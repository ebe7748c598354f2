"""Simulated threads.

A :class:`SimThread` is the schedulable unit: it belongs to one
application, maps to one of the workload model's thread indices, carries
an affinity mask (the simulated ``sched_setaffinity`` state) and a
load-average signal that the GTS scheduler model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.errors import SimulationError

#: Load-tracking exponential time constant (seconds).  Chosen near the
#: effective horizon of the kernel's per-entity load tracking so threads
#: ramp to "heavy" within a few hundred milliseconds of becoming busy.
LOAD_TIME_CONSTANT_S = 0.1

#: New tasks start heavy — the HMP scheduler's fork/exec placement puts
#: fresh CPU-hungry threads on the big cluster.
INITIAL_LOAD = 1.0


@dataclass
class SimThread:
    """Runtime state of one application thread.

    Parameters
    ----------
    app_name:
        Owning application.
    local_index:
        Thread index inside the application's workload model (this is the
        thread-ID ordering the chunk/interleaving schedulers rely on).
    affinity:
        Allowed core ids (``None`` = unrestricted within the app cpuset).
    """

    app_name: str
    local_index: int
    affinity: Optional[FrozenSet[int]] = None
    current_core: Optional[int] = None
    load: float = INITIAL_LOAD
    #: Flat index assigned by the engine's runtime index.
    _slot: int = field(default=-1, repr=False)
    #: GTS partition-cache entry (see :class:`~repro.sched.gts.GtsScheduler`).
    _gts_entry: Optional[tuple] = field(default=None, repr=False)

    def set_affinity(self, mask: Optional[FrozenSet[int]]) -> None:
        """Simulated ``sched_setaffinity``; ``None`` clears the pin."""
        if mask is not None and not mask:
            raise SimulationError(
                f"{self.app_name}/t{self.local_index}: empty affinity mask"
            )
        self.affinity = mask

    def key(self) -> str:
        """Stable identity string for placement maps and traces."""
        return f"{self.app_name}/t{self.local_index}"
