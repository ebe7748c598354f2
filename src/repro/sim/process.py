"""Simulated application processes.

A :class:`SimApp` binds a workload model to its threads, heartbeat log
and performance target — one self-adaptive application as the runtime
managers see it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.heartbeats.monitor import HeartbeatMonitor
from repro.heartbeats.record import HeartbeatLog
from repro.heartbeats.targets import PerformanceTarget
from repro.sim.thread import SimThread
from repro.workloads.base import WorkloadModel


class SimApp:
    """One running self-adaptive application."""

    def __init__(
        self,
        name: str,
        model: WorkloadModel,
        target: PerformanceTarget,
        cpuset: Optional[FrozenSet[int]] = None,
    ):
        if not name:
            raise ConfigurationError("application needs a name")
        if cpuset is not None and not cpuset:
            raise ConfigurationError(f"{name}: empty cpuset")
        self.name = name
        self.model = model
        self.target = target
        self.cpuset = cpuset
        self.log = HeartbeatLog(app_name=name)
        self.monitor = HeartbeatMonitor(self.log, target)
        self.threads: List[SimThread] = [
            SimThread(app_name=name, local_index=i)
            for i in range(model.n_threads)
        ]
        #: Halted apps (crashed, hung, or evicted) are never scheduled
        #: again; their work units stay unconsumed.
        self.halted = False
        #: A runaway app has escaped its pinning and runs uncontrolled.
        self.runaway = False
        #: Thread-speed multiplier (1.0 normally; > 1 during a runaway
        #: episode — the engine gates on ``!= 1.0`` so healthy runs take
        #: the exact pre-fault code path).
        self.speed_factor = 1.0

    @property
    def n_threads(self) -> int:
        return self.model.n_threads

    def is_done(self) -> bool:
        """Whether the workload has completed all its work."""
        return self.model.is_done()

    def allowed_cores(
        self, thread: SimThread, platform_cores: Tuple[int, ...]
    ) -> FrozenSet[int]:
        """Effective allowed core set for one thread.

        Thread affinity (if pinned) intersected with the app cpuset,
        falling back to the full platform.  An empty intersection is a
        configuration bug and raises.
        """
        allowed = frozenset(platform_cores)
        if self.cpuset is not None:
            allowed &= self.cpuset
        if thread.affinity is not None:
            allowed &= thread.affinity
        if not allowed:
            raise ConfigurationError(
                f"{thread.key()}: affinity ∩ cpuset is empty"
            )
        return allowed

    def clear_affinities(self) -> None:
        """Unpin every thread (back to pure GTS scheduling)."""
        for thread in self.threads:
            thread.set_affinity(None)

    def set_cpuset(self, cpuset: Optional[FrozenSet[int]]) -> None:
        """Restrict the whole app to a core set (``None`` = all cores)."""
        if cpuset is not None and not cpuset:
            raise ConfigurationError(f"{self.name}: empty cpuset")
        self.cpuset = cpuset

    def cores_in_use(self) -> Tuple[int, ...]:
        """Distinct cores the app's threads currently sit on."""
        return tuple(
            sorted(
                {
                    t.current_core
                    for t in self.threads
                    if t.current_core is not None
                }
            )
        )
