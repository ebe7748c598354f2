"""Actuation façade.

Execute stages act on the platform only through this object — cluster
DVFS, per-app cpusets, and thread placement.  It is the one writer of
both knobs HARS turns on the board (``scaling_setspeed`` and
``sched_setaffinity``/cpusets): besides giving every manager one narrow
write-path, the façade is where applied states are announced on the
kernel bus as :class:`~repro.kernel.bus.StateApplied`, which is what
feeds the trace recorder.

It is also where actuation faults are *injected and handled*: when a
fault injector is attached, every DVFS write and affinity call first
rolls the injector's gate for its channel, and runs under a
retry-with-backoff policy.  A write that keeps failing is abandoned for
an exponentially-growing backoff window instead of raised — the
managers keep running with the platform in its last good state, and the
injector announces every failure/recovery on the bus.  Without an
injector the façade is a zero-overhead pass-through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.kernel.bus import StateApplied

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assignment import ThreadAssignment
    from repro.core.state import SystemState
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Cap on the backoff doubling exponent.
_MAX_BACKOFF_LEVEL = 8


class Actuator:
    """The kernel's write-path to DVFS and thread placement."""

    #: Immediate retries after a failed platform write.
    max_retries = 3
    #: Base backoff window (simulated seconds) after retries are
    #: exhausted; doubles per consecutive exhausted episode on the same
    #: target.
    backoff_s = 0.5

    def __init__(
        self, sim: "Simulation", faults: Optional["FaultInjector"] = None
    ):
        self._sim = sim
        self._faults = faults
        #: Actuations that exhausted their retries (state held instead).
        self.failed_actuations = 0
        #: Actuations that succeeded only after at least one retry.
        self.retried_actuations = 0
        #: Actuations skipped because the target was in backoff.
        self.skipped_actuations = 0
        self._backoff_until: Dict[Tuple[str, str], float] = {}
        self._backoff_level: Dict[Tuple[str, str], int] = {}

    # -- fault-tolerant write path -------------------------------------------

    def _with_retries(
        self, kind: str, target: str, op: Callable[[], bool]
    ) -> bool:
        """Run ``op`` (returns success) under retry-with-backoff.

        Without an injector (or with the channel's rate at zero) this is
        a single straight call.
        """
        injector = self._faults
        if injector is None or not injector.actuation_enabled(kind):
            return bool(op())
        now = self._sim.clock.now_s
        key = (kind, target)
        if now + 1e-12 < self._backoff_until.get(key, 0.0):
            self.skipped_actuations += 1
            return False
        for attempt in range(1 + self.max_retries):
            if op():
                if attempt:
                    self.retried_actuations += 1
                    injector.note_recovered(
                        kind, target, now, f"succeeded after {attempt} retries"
                    )
                elif key in self._backoff_level:
                    injector.note_recovered(
                        kind, target, now, "recovered after backoff"
                    )
                self._backoff_level.pop(key, None)
                self._backoff_until.pop(key, None)
                return True
            injector.note_injected(
                kind, target, now, f"attempt {attempt + 1} failed"
            )
        level = self._backoff_level.get(key, 0)
        self._backoff_until[key] = now + self.backoff_s * (2.0 ** level)
        self._backoff_level[key] = min(level + 1, _MAX_BACKOFF_LEVEL)
        self.failed_actuations += 1
        return False

    def _write_affinity(self, app: "SimApp", write: Callable[[], None]) -> bool:
        """Run one placement ``write`` behind the affinity fault gate,
        under retry-with-backoff."""

        def op() -> bool:
            faults = self._faults
            if faults is not None and not faults.affinity_write_ok(app.name):
                return False
            write()
            return True

        return self._with_retries("affinity", app.name, op)

    # -- DVFS ----------------------------------------------------------------

    def set_frequency(self, cluster_name: str, freq_mhz: int) -> bool:
        """Set one cluster's frequency (must be an operating point).

        Returns whether the write took effect; under injected DVFS
        faults a failed write leaves the cluster at its previous
        frequency.  A dropped write still validates ``freq_mhz``, so an
        off-table frequency raises either way.
        """
        machine = self._sim.machine

        def op() -> bool:
            faults = self._faults
            if faults is not None and not faults.dvfs_write_ok(
                cluster_name, freq_mhz
            ):
                machine.spec.cluster(cluster_name).freq_index(freq_mhz)
                return False
            machine.set_freq_mhz(cluster_name, freq_mhz)
            return True

        return self._with_retries("dvfs", cluster_name, op)

    def set_max_frequencies(self) -> None:
        """Pin both clusters to their maximum operating point."""
        machine = self._sim.machine
        for cluster in machine.spec.clusters:
            machine.set_freq_mhz(cluster.name, cluster.max_freq_mhz)

    def set_min_frequencies(self) -> None:
        """Pin both clusters to their minimum operating point."""
        machine = self._sim.machine
        for cluster in machine.spec.clusters:
            machine.set_freq_mhz(cluster.name, cluster.min_freq_mhz)

    # -- thread placement ----------------------------------------------------

    def set_cpuset(
        self, app: "SimApp", cpuset: Optional[FrozenSet[int]]
    ) -> bool:
        """Restrict an app to a core set (``None`` = all cores)."""
        return self._write_affinity(app, lambda: app.set_cpuset(cpuset))

    def clear_affinities(self, app: "SimApp") -> bool:
        """Unpin all of an app's threads (back to pure GTS)."""
        return self._write_affinity(app, app.clear_affinities)

    def place(
        self,
        app: "SimApp",
        assignment: "ThreadAssignment",
        big_core_ids: Sequence[int],
        little_core_ids: Sequence[int],
        policy: str,
    ) -> bool:
        """Pin an app's threads per a Table 3.1 assignment."""
        # Imported here: the kernel sits below repro.core in the layer
        # stack, and a module-level import would be circular.
        from repro.core.schedulers import apply_assignment

        return self._write_affinity(
            app,
            lambda: apply_assignment(
                app, assignment, big_core_ids, little_core_ids, policy
            ),
        )

    def place_stage_aware(
        self,
        app: "SimApp",
        assignment: "ThreadAssignment",
        big_core_ids: Sequence[int],
        little_core_ids: Sequence[int],
    ) -> bool:
        """Pin an app's threads splitting each pipeline stage T_B:T_L."""
        from repro.extensions.stage_aware import apply_stage_aware_assignment

        return self._write_affinity(
            app,
            lambda: apply_stage_aware_assignment(
                app, app.model, assignment, big_core_ids, little_core_ids
            ),
        )

    # -- announcements -------------------------------------------------------

    def announce(
        self,
        app_name: str,
        state: SystemState,
        big_cores: int,
        little_cores: int,
    ) -> None:
        """Publish ``StateApplied`` for an allocation just applied."""
        self._sim.bus.publish(
            StateApplied(
                app_name=app_name,
                state=state,
                big_cores=big_cores,
                little_cores=little_cores,
            )
        )
