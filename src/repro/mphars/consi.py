"""CONS-I: the conservative incremental naive adaptation model.

The multi-application baseline of Section 5.2.1: every application shares
all enabled cores (Linux GTS places threads) and one *global* system
state is adjusted incrementally along the ``perfScore``-sorted list —
no performance or power estimation, just the nearest-score step:

* an underperforming application steps the system *up* unconditionally
  ("no restriction on increasing system performance");
* an overperforming application steps the system *down* only when no
  other application would be hurt — every co-runner must itself be
  overperforming and no freeze may be pending;
* after any decrease, adaptation pauses until every application has
  collected fresh performance data on the new state (the
  interference-aware freeze).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.heartbeats.record import Heartbeat
from repro.heartbeats.targets import Satisfaction
from repro.mphars.freeze import worst_satisfaction
from repro.mphars.perfscore import ScoreOrderedStates, incremental_step
from repro.platform.cluster import BIG, LITTLE
from repro.platform.topology import first_n
from repro.sim.controller import Controller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Heartbeats each app must observe after a decrease before adapting.
DEFAULT_FREEZE_BEATS = 5


class ConsIController(Controller):
    """Global conservative-incremental adaptation over shared resources."""

    def __init__(self, adapt_every: int = 5):
        if adapt_every < 1:
            raise ConfigurationError("adapt_every must be >= 1")
        self.adapt_every = adapt_every
        self._states: Optional[ScoreOrderedStates] = None
        self._current: Optional[SystemState] = None
        self._freeze_left: Dict[str, int] = {}
        self._last_rate: Dict[str, Optional[float]] = {}
        self.adaptations = 0

    # -- Controller hooks ---------------------------------------------------

    def on_start(self, sim: "Simulation") -> None:
        self._states = ScoreOrderedStates(sim.spec)
        for app in sim.apps:
            sim.actuator.clear_affinities(app)
            self._freeze_left[app.name] = 0
            self._last_rate[app.name] = None
        self._apply(sim, self._states.top)

    def on_heartbeat(
        self, sim: "Simulation", app: "SimApp", heartbeat: Heartbeat
    ) -> None:
        if app.name not in self._freeze_left:
            return
        if self._freeze_left[app.name] > 0:
            self._freeze_left[app.name] -= 1
        rate = app.monitor.current_rate()
        if rate is not None:
            self._last_rate[app.name] = rate
        if heartbeat.index == 0 or heartbeat.index % self.adapt_every != 0:
            return
        if rate is None or not app.target.out_of_window(rate):
            return
        assert self._states is not None and self._current is not None
        satisfaction = app.target.classify(rate)
        if satisfaction is Satisfaction.UNDERPERF:
            next_state = incremental_step(
                sim.spec, self._current, increase=True
            )
        else:  # OVERPERF
            if not self._may_decrease(sim, app):
                return
            next_state = incremental_step(
                sim.spec, self._current, increase=False
            )
            # The freeze exists to let apps re-measure after a *frequency*
            # decrease (Section 4.1.4); core-count decreases are visible
            # immediately and do not stall adaptation.
            if next_state is not None and (
                next_state.f_big_mhz < self._current.f_big_mhz
                or next_state.f_little_mhz < self._current.f_little_mhz
            ):
                self._start_freeze(sim)
        if next_state is not None and next_state != self._current:
            self.adaptations += 1
            self._apply(sim, next_state)

    def current_allocation(self, app_name: str) -> Optional[Tuple[int, int]]:
        if self._current is None or app_name not in self._freeze_left:
            return None
        return (self._current.c_big, self._current.c_little)

    @property
    def state(self) -> Optional[SystemState]:
        """The current global system state."""
        return self._current

    # -- internals -------------------------------------------------------------

    def _may_decrease(self, sim: "Simulation", app: "SimApp") -> bool:
        """Conservative rule: decrease only if nobody could be hurt."""
        # Pending freezes only matter for apps that are still running —
        # a finished app will never re-measure, and one that has not yet
        # produced heartbeats has no measurements to invalidate.
        for other in sim.apps:
            if other.is_done():
                continue
            if self._last_rate.get(other.name) is None:
                continue
            if self._freeze_left.get(other.name, 0) > 0:
                return False  # frozen: still collecting post-decrease data
        others = [
            other
            for other in sim.apps
            if other.name != app.name and not other.is_done()
        ]
        satisfactions = []
        for other in others:
            rate = self._last_rate.get(other.name)
            if rate is None:
                # No data yet (e.g. a serial startup phase): the paper's
                # conservative model has nothing to protect, so it does
                # not block the decrease.
                continue
            satisfactions.append(other.target.classify(rate))
        if not satisfactions:
            return True
        return worst_satisfaction(satisfactions) is Satisfaction.OVERPERF

    def _start_freeze(self, sim: "Simulation") -> None:
        for app in sim.apps:
            # Only apps with performance data to re-collect are frozen;
            # an app still in a heartbeat-free phase (e.g. blackscholes'
            # input reading) has nothing to invalidate.
            if not app.is_done() and self._last_rate.get(app.name) is not None:
                self._freeze_left[app.name] = DEFAULT_FREEZE_BEATS

    def _apply(self, sim: "Simulation", state: SystemState) -> None:
        state.validate(sim.spec)
        actuator = sim.actuator
        actuator.set_frequency(BIG, state.f_big_mhz)
        actuator.set_frequency(LITTLE, state.f_little_mhz)
        enabled = frozenset(
            first_n(sim.spec, BIG, state.c_big)
            + first_n(sim.spec, LITTLE, state.c_little)
        )
        for app in sim.apps:
            actuator.set_cpuset(app, enabled)
            actuator.announce(app.name, state, state.c_big, state.c_little)
        self._current = state
