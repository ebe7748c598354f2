"""Barrier-style data-parallel workload model.

This models the dominant PARSEC pattern (blackscholes, bodytrack,
facesim, fluidanimate, swaptions): each work unit is split equally over
the ``T`` worker threads, and the unit — and its heartbeat — completes
when the *slowest* thread finishes its share (the paper's
``t_f = max(t_B, t_L)``, Section 3.1.1).  Threads that finish early wait
at the barrier, which lowers their utilization exactly the way the
HARS power estimator's ``U_B,U = t_B / t_F`` term assumes.

An optional *serial phase* runs before the parallel units: only thread 0
executes and no heartbeats are emitted.  This reproduces blackscholes'
input-reading phase, which drives the case-6 anomaly in the MP-HARS
evaluation (Section 5.2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits
from repro.workloads.phases import WorkProfile

#: Completion slack: a share below this many work units counts as done.
_EPSILON = 1e-9


class DataParallelWorkload(WorkloadModel):
    """Equal-split, barrier-per-unit data-parallel application."""

    def __init__(
        self,
        traits: WorkloadTraits,
        n_threads: int,
        profile: WorkProfile,
        n_units: int,
        serial_work: float = 0.0,
    ):
        super().__init__(traits, n_threads)
        if n_units < 1:
            raise ConfigurationError(f"{traits.name}: need at least one unit")
        if serial_work < 0:
            raise ConfigurationError(f"{traits.name}: negative serial work")
        self.profile = profile
        self.n_units = n_units
        self.serial_work = serial_work
        self.reset()

    def reset(self, seed: int = 0) -> None:
        self._seed = seed
        self._unit_index = 0
        self._serial_remaining = self.serial_work
        self._shares: List[float] = []
        self._done = False
        #: The runnable threads while they stand, else ``None``.
        self._runnable: Optional[Tuple[int, ...]] = None
        if self.serial_work <= _EPSILON:  # a serial phase this short is over
            self._load_unit()

    def _load_unit(self) -> None:
        """Split the next work unit equally across threads."""
        work = self.profile.work(self._unit_index, self._seed)
        share = work / self.n_threads
        self._shares = [share] * self.n_threads
        self._runnable = None

    # -- WorkloadModel interface -------------------------------------------

    def runnable_threads(self) -> Tuple[int, ...]:
        """The same tuple while the runnable set stands: a thread
        leaves it when its share runs out (every change of which
        :meth:`advance` watches), and all rejoin with the next unit."""
        runnable = self._runnable
        if runnable is None:
            if self._done:
                runnable = ()
            elif self._serial_remaining > _EPSILON:
                runnable = (0,)
            else:
                runnable = tuple(
                    i for i, share in enumerate(self._shares) if share > _EPSILON
                )
            self._runnable = runnable
        return runnable

    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        if self._done:
            return AdvanceResult(consumed={}, done=True)
        if self._serial_remaining <= _EPSILON:
            # The first pass, inline: it writes what :meth:`_pass` would
            # (``0.0 + used`` is ``used``), and the leftover grants are
            # built only when the unit completed and a further pass
            # needs them; most ticks complete none.
            shares = self._shares
            consumed: Dict[int, float] = {}
            for i, grant in grants.items():
                share = shares[i]
                if grant <= _EPSILON or share <= _EPSILON:
                    consumed[i] = 0.0
                    continue
                used = share if share < grant else grant  # min(grant, share)
                share -= used
                shares[i] = share
                consumed[i] = used
                if share <= _EPSILON:
                    self._runnable = None
            # A runnable set that still stands (no share ran out since it
            # was taken) tells whether any share is left without a scan.
            runnable = self._runnable
            if runnable if runnable is not None else max(shares) > _EPSILON:
                return AdvanceResult(consumed=consumed)
            remaining_grant = {
                i: grant - consumed[i] for i, grant in grants.items()
            }
            return self._complete_units(consumed, remaining_grant)

        consumed = {i: 0.0 for i in grants}
        remaining_grant = dict(grants)
        # Serial phase: only thread 0 makes progress, no heartbeats.
        grant0 = remaining_grant.get(0, 0.0)
        used = min(grant0, self._serial_remaining)
        self._serial_remaining -= used
        consumed[0] = consumed.get(0, 0.0) + used
        remaining_grant[0] = grant0 - used
        if self._serial_remaining > _EPSILON:
            return AdvanceResult(consumed=consumed)
        self._load_unit()
        if not self._pass(consumed, remaining_grant):
            return AdvanceResult(consumed=consumed)
        return self._complete_units(consumed, remaining_grant)

    def _pass(
        self, consumed: Dict[int, float], remaining_grant: Dict[int, float]
    ) -> bool:
        """Spend what is left of each grant on the current unit, adding
        to ``consumed``; returns whether the unit completed.  A pass
        leaves every thread with no grant or no share left (``used`` is
        one of the two), so one that completes no unit is the last."""
        shares = self._shares
        for i, grant in remaining_grant.items():
            share = shares[i]
            if grant <= _EPSILON or share <= _EPSILON:
                continue
            used = min(grant, share)
            shares[i] = share - used
            remaining_grant[i] = grant - used
            consumed[i] += used
            if shares[i] <= _EPSILON:
                self._runnable = None
        return not max(shares) > _EPSILON

    def _complete_units(
        self, consumed: Dict[int, float], remaining_grant: Dict[int, float]
    ) -> AdvanceResult:
        """The current unit just completed: emit it, and keep passing
        ``remaining_grant`` over the next units (a large grant may
        complete several within one tick)."""
        heartbeats = 0
        while True:
            heartbeats += 1
            self._unit_index += 1
            if self._unit_index >= self.n_units:
                self._done = True
                self._runnable = None
                break
            self._load_unit()
            if not self._pass(consumed, remaining_grant):
                break
        return AdvanceResult(
            consumed=consumed,
            heartbeats=heartbeats,
            heartbeat_tags=("parallel",) * heartbeats,
            done=self._done,
        )

    def is_done(self) -> bool:
        return self._done

    def total_heartbeats(self) -> int:
        return self.n_units

    # -- introspection (tests, estimator validation) ------------------------

    @property
    def units_completed(self) -> int:
        """How many work units (heartbeats) have completed so far."""
        return self._unit_index

    @property
    def in_serial_phase(self) -> bool:
        """Whether the model is still in the heartbeat-free serial phase."""
        return self._serial_remaining > _EPSILON
