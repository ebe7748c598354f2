"""BudgetEnforcer unit behaviour: shares, margin, throttle hysteresis."""

import pytest

from repro.guardrails import BudgetEnforcer, GuardrailConfig
from repro.guardrails.config import (
    FILTER_MARGIN,
    MIN_MARGIN,
    RELEASE_FRACTION,
    THERMAL_CAP_FACTOR,
    TRIP_MARGIN_DECAY,
)

BOARD_W = 0.25


def _enforcer(**config_kwargs):
    enforcer = BudgetEnforcer(GuardrailConfig(**config_kwargs))
    enforcer.board_power_w = BOARD_W
    return enforcer


class TestShares:
    def test_run_cap_splits_equally_after_board(self):
        enforcer = _enforcer(power_cap_w=3.25)
        enforcer.set_live(["a", "b"], 0.0)
        # Shares are cluster-basis: the board constant comes off first.
        assert enforcer.shares == {"a": pytest.approx(1.5),
                                   "b": pytest.approx(1.5)}

    def test_explicit_caps_take_precedence(self):
        enforcer = _enforcer(
            power_cap_w=3.25, app_power_caps=(("a", 2.0),)
        )
        enforcer.set_live(["a", "b"], 0.0)
        assert enforcer.shares["a"] == pytest.approx(2.0)
        assert enforcer.shares["b"] == pytest.approx(1.0)

    def test_release_gives_the_share_to_survivors(self):
        enforcer = _enforcer(power_cap_w=3.25)
        enforcer.set_live(["a", "b"], 0.0)
        assert enforcer.release("a", 5.0)
        assert enforcer.shares == {"b": pytest.approx(3.0)}
        # The audit trail records both recomputations.
        assert [t for t, _ in enforcer.share_events] == [0.0, 5.0]
        assert enforcer.share_events[-1][1] == {"b": pytest.approx(3.0)}

    def test_release_of_unknown_app_is_a_no_op(self):
        enforcer = _enforcer(power_cap_w=3.25)
        enforcer.set_live(["a"], 0.0)
        assert not enforcer.release("ghost", 1.0)
        assert len(enforcer.share_events) == 1

    def test_admit_restores_the_split(self):
        enforcer = _enforcer(power_cap_w=3.25)
        enforcer.set_live(["a", "b"], 0.0)
        enforcer.release("a", 1.0)
        assert enforcer.admit("a", 2.0)
        assert enforcer.shares["a"] == pytest.approx(1.5)
        assert not enforcer.admit("a", 3.0)  # already live

    def test_no_run_cap_leaves_implicit_apps_uncapped(self):
        enforcer = _enforcer(app_power_caps=(("a", 1.0),))
        enforcer.set_live(["a", "b"], 0.0)
        assert enforcer.shares["a"] == pytest.approx(1.0)
        assert enforcer.shares["b"] is None

    def test_oversubscribed_explicit_caps_leave_no_remainder(self):
        enforcer = _enforcer(
            power_cap_w=2.0, app_power_caps=(("a", 3.0),)
        )
        enforcer.set_live(["a", "b"], 0.0)
        # Nothing (clamped at zero) remains for b: uncapped by share,
        # the run-wide sensor check still protects the budget.
        assert enforcer.shares["b"] is None


class TestRunCap:
    def test_run_cap_is_the_configured_cap(self):
        enforcer = _enforcer(power_cap_w=3.0)
        enforcer.set_live(["a"], 0.0)
        assert enforcer.run_cap_w() == pytest.approx(3.0)

    def test_all_explicit_caps_sum_plus_board(self):
        enforcer = _enforcer(app_power_caps=(("a", 1.0), ("b", 1.5)))
        enforcer.set_live(["a", "b"], 0.0)
        # Per-app caps are cluster-basis; the sensor check is total.
        assert enforcer.run_cap_w() == pytest.approx(2.5 + BOARD_W)

    def test_partial_explicit_coverage_gives_no_run_cap(self):
        enforcer = _enforcer(app_power_caps=(("a", 1.0),))
        enforcer.set_live(["a", "b"], 0.0)
        assert enforcer.run_cap_w() is None
        assert enforcer.effective_cap_w() is None

    def test_veto_cap_applies_the_filter_margin(self):
        enforcer = _enforcer(power_cap_w=3.25)
        enforcer.set_live(["a", "b"], 0.0)
        assert enforcer.veto_cap_w("a") == pytest.approx(1.5 * FILTER_MARGIN)
        assert enforcer.veto_cap_w("ghost") is None


class TestObserve:
    def test_violation_trips_once_and_decays_margin(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a"], 0.0)
        transitions, violating = enforcer.observe(0.1, 3.0, 0.1)
        assert violating
        assert [(g, c) for g, c, _ in transitions] == [("budget", "trip")]
        assert enforcer.trips == 1
        assert enforcer.margin == pytest.approx(FILTER_MARGIN * TRIP_MARGIN_DECAY)
        # A second violating tick keeps throttling without re-tripping.
        transitions, violating = enforcer.observe(0.1, 3.0, 0.2)
        assert violating and transitions == []
        assert enforcer.trips == 1

    def test_margin_never_decays_below_the_floor(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a"], 0.0)
        # Trip and release until the decay would cross the floor.
        trips = 0
        margin = FILTER_MARGIN
        while margin * TRIP_MARGIN_DECAY >= MIN_MARGIN:
            margin *= TRIP_MARGIN_DECAY
            trips += 1
        for i in range(trips + 2):
            enforcer.observe(0.1, 3.0, 0.2 * i + 0.1)
            enforcer.observe(0.1, 1.0, 0.2 * i + 0.2)
        assert enforcer.trips == trips + 2
        assert enforcer.margin == MIN_MARGIN

    def test_release_needs_the_hysteresis_fraction(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a"], 0.0)
        enforcer.observe(0.1, 3.0, 0.1)
        assert enforcer.throttling
        release_w = 2.0 * RELEASE_FRACTION
        # Under the cap but above RELEASE_FRACTION × cap: no release yet.
        transitions, violating = enforcer.observe(0.1, (2.0 + release_w) / 2, 0.2)
        assert not violating and transitions == []
        assert enforcer.throttling
        transitions, violating = enforcer.observe(0.1, release_w - 0.05, 0.3)
        assert [(g, c) for g, c, _ in transitions] == [("budget", "release")]
        assert not enforcer.throttling
        assert enforcer.throttled_s == pytest.approx(0.2)

    def test_streaks_are_tracked_in_seconds(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a"], 0.0)
        for i in range(3):
            enforcer.observe(0.1, 3.0, 0.1 * (i + 1))
        enforcer.observe(0.1, 1.0, 0.4)   # streak broken
        enforcer.observe(0.1, 3.0, 0.5)
        assert enforcer.violation_ticks == 4
        assert enforcer.max_violation_streak_s == pytest.approx(0.3)

    def test_uncapped_run_never_violates(self):
        enforcer = _enforcer()
        enforcer.set_live(["a"], 0.0)
        transitions, violating = enforcer.observe(0.1, 100.0, 0.1)
        assert transitions == [] and not violating


class TestThermalTightening:
    def _hot_enforcer(self):
        enforcer = _enforcer(power_cap_w=2.0, thermal_enabled=True)
        enforcer.set_live(["a"], 0.0)
        return enforcer

    def _heat(self, enforcer):
        # Sustained 10 W → steady state 95 °C with tau 10 s: about 16 s
        # trips the thermal regime.
        transitions = []
        for i in range(100):
            got, _ = enforcer.observe(0.25, 10.0, 0.25 * (i + 1))
            transitions.extend(got)
        return transitions

    def test_hot_model_tightens_cap_and_shares(self):
        enforcer = self._hot_enforcer()
        transitions = self._heat(enforcer)
        assert ("thermal", "trip") in [(g, c) for g, c, _ in transitions]
        assert enforcer.thermal_trips == 1
        assert enforcer.effective_cap_w() == pytest.approx(2.0 * THERMAL_CAP_FACTOR)
        # The per-app veto bound tightens by the same factor (the share
        # is the whole cluster budget; the margin may have decayed from
        # the budget trips the tightened cap caused).
        share = 2.0 - BOARD_W
        assert enforcer.veto_cap_w("a") == pytest.approx(
            share * enforcer.margin * THERMAL_CAP_FACTOR
        )

    def test_cooling_releases_the_tightened_cap(self):
        enforcer = self._hot_enforcer()
        self._heat(enforcer)
        assert enforcer.thermal.hot
        transitions = []
        for i in range(60):
            got, _ = enforcer.observe(0.25, 0.2, 25.0 + 0.25 * (i + 1))
            transitions.extend(got)
        assert ("thermal", "release") in [(g, c) for g, c, _ in transitions]
        assert enforcer.effective_cap_w() == pytest.approx(2.0)


class TestCheckpoint:
    def test_snapshot_restore_round_trip(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a", "b"], 0.0)
        enforcer.observe(0.1, 3.0, 0.1)
        body = enforcer.snapshot()
        clone = _enforcer(power_cap_w=2.0)
        clone.restore(body, now_s=1.0)
        assert clone.margin == enforcer.margin
        assert clone.throttling
        assert clone.trips == 1
        assert clone.violation_ticks == 1
        assert clone.shares == enforcer.shares

    def test_reset_restores_volatile_state_only(self):
        enforcer = _enforcer(power_cap_w=2.0)
        enforcer.set_live(["a", "b"], 0.0)
        enforcer.observe(0.1, 3.0, 0.1)
        assert enforcer.margin < FILTER_MARGIN
        enforcer.reset(1.0, ["b"])
        assert enforcer.margin == FILTER_MARGIN
        assert not enforcer.throttling
        assert enforcer.trips == 1            # counters survive
        assert set(enforcer.shares) == {"b"}
