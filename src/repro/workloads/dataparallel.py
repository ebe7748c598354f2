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

from repro.errors import ConfigurationError, SimulationError
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits
from repro.workloads.phases import WorkProfile

#: Completion slack: a share below this many work units counts as done.
_EPSILON = 1e-9

#: Subtractions held back from a steady count estimated by division.
#: ``k`` sequential subtractions round by less than ``(k + 3)·2⁻⁵³·left``
#: in all (the 3 covers the division), below the ``2·grant`` held back
#: while ``left/grant`` is under 10⁸; a longer run is cut far from its
#: end by the engine's tick cap (2·10⁶).  :func:`_subtract` checks.
_STEADY_MARGIN = 2


def _steady_count(left: float, grant: float, limit: int) -> int:
    """How many times, up to ``limit``, ``grant`` can be taken off
    ``left`` one after another with every result above
    :data:`_EPSILON`."""
    if grant <= 0.0:
        return limit
    count = (left - _EPSILON) / grant - _STEADY_MARGIN
    return limit if count >= limit else max(0, int(count))


def _subtract(left: float, grant: float, n: int) -> float:
    """``left`` less ``grant`` ``n`` times, one subtraction after
    another as ``n`` advances take it; checks the count was steady."""
    for _ in range(n):
        left -= grant
    if not left > _EPSILON:
        raise SimulationError(f"steady run of {n} advances ran out of work")
    return left


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

    def steady_ticks(
        self, grants: Dict[int, float], used: Dict[int, float], limit: int
    ) -> int:
        """While a thread's work left (its share, or the serial work)
        stays above :data:`_EPSILON` after its grant is taken off, its
        advance consumes the grant and nothing else changes; a thread
        with no grant or no share consumes 0.0 for good."""
        if self._done:
            return 0
        if self._serial_remaining > _EPSILON:
            grant = grants.get(0, 0.0)
            expected = dict.fromkeys(grants, 0.0)
            expected[0] = grant
            if used != expected:
                return 0
            return _steady_count(self._serial_remaining, grant, limit)
        if len(used) != len(grants):
            return 0
        shares = self._shares
        active = False
        for i, grant in grants.items():
            share = shares[i]
            if grant <= _EPSILON or share <= _EPSILON:
                if used.get(i) != 0.0:
                    return 0
            elif used.get(i) != grant:
                return 0
            else:
                limit = _steady_count(share, grant, limit)
                if not limit:
                    return 0
                active = True
        # With no share moving, whether the unit is complete is a scan
        # away: leave that tick to the per-tick path.
        return limit if active else 0

    def repeat(self, grants: Dict[int, float], n: int) -> None:
        if self._serial_remaining > _EPSILON:
            self._serial_remaining = _subtract(
                self._serial_remaining, grants.get(0, 0.0), n
            )
            return
        shares = self._shares
        for i, grant in grants.items():
            share = shares[i]
            if grant > _EPSILON and share > _EPSILON:
                shares[i] = _subtract(share, grant, n)

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
