"""Controller checkpoint/restore: warm restarts for the control plane.

A controller crash loses exactly the knowledge that took longest to
earn: fitted power-model coefficients, the learned big/little ratio, the
partition layout, per-app MAPE hold state.  A cold-restarted MP-HARS
re-runs its max-state bootstrap and re-converges from scratch — during
which every app is out of its window.

The :class:`Checkpointer` is a bus-attached controller that, on a fixed
simulated-time cadence, asks every :class:`CheckpointedController` for
a versioned snapshot and keeps the latest in a
:class:`CheckpointStore`.  When the fault layer injects a
``controller_restart``, every :class:`CheckpointedController` runs the
one restart protocol, :meth:`CheckpointedController.simulate_restart`:
forget volatile state, then consult the store — snapshot present and
valid → warm restore; absent or schema-rejected → cold start.  The
snapshots go through the envelope in
:mod:`repro.experiments.serialize` (``checkpoint_payload`` /
``validate_checkpoint``), so what the store holds is exactly what a
deployment would write to disk — :meth:`CheckpointStore.dump` /
:meth:`CheckpointStore.load` round-trip it through JSON.

Both classes are read-only observers of the running system; with no
restart ever injected, a checkpointed run is bit-identical to an
uncheckpointed one (minus wall-clock spent snapshotting, which the
simulation does not model).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.kernel.bus import ControllerRestored, TickStart
from repro.sim.controller import Controller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


class CheckpointStore:
    """Latest validated checkpoint per controller id.

    The store only accepts payloads that pass
    :func:`~repro.experiments.serialize.validate_checkpoint`, so restore
    paths can trust whatever they read back.
    """

    def __init__(self) -> None:
        self._payloads: Dict[str, Dict[str, Any]] = {}
        #: Total accepted snapshots (cadence observability).
        self.writes = 0
        #: Audit trail of persistence failures: one entry per snapshot
        #: file that could not be read back (torn write, bad schema),
        #: i.e. per cold-start fallback :meth:`recover` had to take.
        self.ledger: List[Dict[str, Any]] = []

    def put(self, payload: Dict[str, Any]) -> None:
        # Imported lazily: serialize pulls in the experiment figures,
        # which pull in the runner, which attaches supervision.
        from repro.experiments.serialize import validate_checkpoint

        validate_checkpoint(payload)
        self._payloads[payload["controller"]] = payload
        self.writes += 1

    def get(self, controller_id: str) -> Optional[Dict[str, Any]]:
        return self._payloads.get(controller_id)

    @property
    def controller_ids(self) -> List[str]:
        return sorted(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def dump(self, path: str) -> None:
        """Persist every snapshot to one JSON file, atomically.

        The write goes through
        :func:`~repro.experiments.serialize.dump_json_atomic`
        (write-to-temp + ``os.replace`` + directory fsync), so a daemon
        killed mid-snapshot never leaves a torn envelope on disk — the
        previous complete dump survives instead.
        """
        from repro.experiments.serialize import dump_json_atomic

        dump_json_atomic(
            {"kind": "checkpoint-store", "checkpoints": self._payloads}, path
        )

    @classmethod
    def load(cls, path: str) -> "CheckpointStore":
        """Read a dumped store back, re-validating every snapshot."""
        from repro.experiments.serialize import load_json

        data = load_json(path)
        if data.get("kind") != "checkpoint-store":
            raise ConfigurationError(f"{path}: not a checkpoint store")
        checkpoints = data.get("checkpoints")
        if not isinstance(checkpoints, dict):
            raise ConfigurationError(f"{path}: malformed checkpoint store")
        store = cls()
        for payload in checkpoints.values():
            store.put(payload)
        store.writes = len(store._payloads)
        return store

    @classmethod
    def recover(cls, path: str) -> "CheckpointStore":
        """Best-effort :meth:`load`: never raises on a bad file.

        A missing, truncated, or schema-rejected dump yields an *empty*
        store whose :attr:`ledger` records why — the controllers it
        feeds then cold-start instead of restoring garbage, and the
        daemon surfaces the ledger entry for the operator.
        """
        import json

        try:
            return cls.load(path)
        except FileNotFoundError as exc:
            reason = f"missing: {exc}"
        except (ConfigurationError, json.JSONDecodeError, OSError, ValueError) as exc:
            reason = f"unreadable: {exc}"
        store = cls()
        store.ledger.append(
            {"path": path, "action": "cold-start fallback", "reason": reason}
        )
        return store


class CheckpointedController(Controller):
    """A controller whose knowledge survives a crash via checkpoints.

    Subclasses supply ``checkpoint_id``, ``checkpoint(now_s)``,
    ``restore_checkpoint(sim, payload)`` (raising
    :class:`~repro.errors.ConfigurationError` on a payload it cannot
    adopt) and ``_forget_volatile(sim)``; ``_cold_start(sim)`` where a
    cold restart must re-establish more than the forgotten state.
    """

    #: Set by the :class:`Checkpointer` (if one is attached); consulted
    #: by :meth:`simulate_restart` for a warm restore.
    checkpoint_store: Optional[CheckpointStore] = None

    def simulate_restart(self, sim: "Simulation") -> None:
        """Model a controller crash+restart (``controller_restart``).

        Volatile knowledge is dropped; a valid snapshot in the store
        restores warm, otherwise the controller cold-starts.  Either
        way the outcome is announced as
        :class:`~repro.kernel.bus.ControllerRestored`.
        """
        self._forget_volatile(sim)
        store = self.checkpoint_store
        snapshot = (
            store.get(self.checkpoint_id) if store is not None else None
        )
        warm = False
        if snapshot is not None:
            try:
                self.restore_checkpoint(sim, snapshot)
                warm = True
            except ConfigurationError:
                snapshot = None
        if not warm:
            self._cold_start(sim)
        sim.bus.publish(
            ControllerRestored(
                controller=self.checkpoint_id,
                time_s=sim.clock.now_s,
                warm=warm,
                checkpoint_time_s=(
                    snapshot["time_s"] if snapshot is not None else None
                ),
            )
        )

    def _cold_start(self, sim: "Simulation") -> None:
        """Re-establish a zero-knowledge start after a restart."""


class Checkpointer(Controller):
    """Snapshots every checkpoint-capable controller on a cadence."""

    def __init__(
        self, cadence_s: float = 1.0, store: Optional[CheckpointStore] = None
    ):
        if cadence_s <= 0:
            raise ConfigurationError("checkpoint cadence must be positive")
        self.cadence_s = cadence_s
        self.store = store if store is not None else CheckpointStore()
        self._last_snapshot_s: Optional[float] = None

    def attach(self, sim: "Simulation") -> None:
        sim.bus.subscribe(TickStart, lambda event: self._on_tick(sim, event))

    def on_start(self, sim: "Simulation") -> None:
        # Hand every checkpoint-capable controller its store, so a
        # later ``simulate_restart`` knows where to look for warmth.
        for controller in self._capable(sim):
            controller.checkpoint_store = self.store

    def _on_tick(self, sim: "Simulation", event: TickStart) -> None:
        if (
            self._last_snapshot_s is not None
            and event.time_s - self._last_snapshot_s < self.cadence_s
        ):
            return
        self.snapshot_now(sim, now_s=event.time_s)

    def snapshot_now(
        self, sim: "Simulation", now_s: Optional[float] = None
    ) -> int:
        """Snapshot all capable controllers; returns how many."""
        if now_s is None:
            now_s = sim.clock.now_s
        count = 0
        for controller in self._capable(sim):
            self.store.put(controller.checkpoint(now_s))
            count += 1
        self._last_snapshot_s = now_s
        return count

    @staticmethod
    def _capable(sim: "Simulation") -> List[CheckpointedController]:
        return [
            controller
            for controller in sim.controllers
            if isinstance(controller, CheckpointedController)
        ]
