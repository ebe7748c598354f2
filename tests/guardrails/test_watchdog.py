"""Misprediction watchdog: residuals, safe-mode trip, and recovery."""

import pytest

from repro.guardrails import MispredictionWatchdog


def _watchdog(window=4, trip=0.3, recover=0.1, track_power=False):
    dog = MispredictionWatchdog(
        window=window,
        trip_threshold=trip,
        recover_threshold=recover,
    )
    # GuardrailLayer.on_start sets this from the run's app count.
    dog.track_power = track_power
    return dog


def _cycle(dog, est_rate, observed_rate, app="app", t=(0.0, 1.0)):
    """One predict→observe round trip (rate residual only)."""
    dog.note_prediction(app, est_rate, 1.0, t[0], 0.0)
    return dog.note_observation(app, observed_rate, t[1], 0.0)


class TestResiduals:
    def test_residual_is_signed_relative_error(self):
        dog = _watchdog()
        _cycle(dog, est_rate=2.0, observed_rate=1.5)
        assert dog.all_residuals == [pytest.approx(-0.25)]
        _cycle(dog, est_rate=2.0, observed_rate=2.5)
        assert dog.all_residuals[-1] == pytest.approx(0.25)

    def test_observation_without_prediction_is_ignored(self):
        dog = _watchdog()
        assert dog.note_observation("app", 1.0, 1.0, 0.0) == ""
        assert dog.all_residuals == []

    def test_prediction_is_consumed_once(self):
        dog = _watchdog()
        _cycle(dog, 2.0, 1.0)
        assert dog.note_observation("app", 1.0, 2.0, 0.0) == ""
        assert len(dog.all_residuals) == 1

    def test_newer_prediction_overwrites_pending(self):
        dog = _watchdog()
        dog.note_prediction("app", 2.0, 1.0, 0.0, 0.0)
        dog.note_prediction("app", 4.0, 1.0, 0.5, 0.0)
        dog.note_observation("app", 2.0, 1.0, 0.0)
        # Residual measured against the latest applied estimate (4.0).
        assert dog.all_residuals == [pytest.approx(-0.5)]

    def test_power_residual_from_integrated_energy(self):
        dog = _watchdog(track_power=True)
        # 1 W predicted; 3 J over 2 s observed → +0.5 power residual
        # recorded after the (exact, zero) rate residual.
        dog.note_prediction("app", 2.0, 1.0, 0.0, 0.0)
        dog.note_observation("app", 2.0, 2.0, 3.0)
        assert dog.all_residuals == [
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(0.5),
        ]

    def test_power_residual_skipped_when_untracked(self):
        dog = _watchdog(track_power=False)
        dog.note_prediction("app", 2.0, 1.0, 0.0, 0.0)
        dog.note_observation("app", 2.0, 2.0, 3.0)
        # Only the rate residual lands; the energy channel is ignored.
        assert dog.all_residuals == [pytest.approx(0.0, abs=1e-12)]


class TestSafeMode:
    def test_trips_after_a_full_bad_window(self):
        dog = _watchdog(window=4, trip=0.3)
        changes = [_cycle(dog, 2.0, 1.0) for _ in range(4)]
        assert changes == ["", "", "", "trip"]
        assert dog.in_safe_mode("app")
        assert dog.trips == 1

    def test_partial_window_never_judges(self):
        dog = _watchdog(window=4)
        changes = [_cycle(dog, 2.0, 1.0) for _ in range(3)]
        assert changes == ["", "", ""]
        assert not dog.in_safe_mode("app")

    def test_accurate_estimates_never_trip(self):
        dog = _watchdog(window=4, trip=0.3)
        for _ in range(10):
            assert _cycle(dog, 2.0, 2.05) == ""
        assert not dog.in_safe_mode("app")

    def test_recovery_needs_the_lower_threshold(self):
        dog = _watchdog(window=2, trip=0.3, recover=0.1)
        for _ in range(2):
            _cycle(dog, 2.0, 1.0)
        assert dog.in_safe_mode("app")
        # 0.2 mean residual: below trip but above recover — stays safe.
        for _ in range(4):
            assert _cycle(dog, 2.0, 2.4) == ""
        assert dog.in_safe_mode("app")
        # Two accurate cycles flush the window below recover.
        changes = [_cycle(dog, 2.0, 2.02) for _ in range(2)]
        assert changes[-1] == "release"
        assert not dog.in_safe_mode("app")

    def test_safe_cycles_counted(self):
        dog = _watchdog()
        dog.note_safe_cycle()
        dog.note_safe_cycle()
        assert dog.safe_cycles == 2

    def test_apps_are_independent(self):
        dog = _watchdog(window=2)
        for _ in range(2):
            _cycle(dog, 2.0, 1.0, app="bad")
        assert dog.in_safe_mode("bad")
        assert not dog.in_safe_mode("good")


class TestLifecycle:
    def test_forget_drops_safe_mode(self):
        dog = _watchdog(window=2)
        for _ in range(2):
            _cycle(dog, 2.0, 1.0)
        dog.forget("app")
        assert not dog.in_safe_mode("app")

    def test_reset_clears_windows_but_keeps_counters(self):
        dog = _watchdog(window=2)
        for _ in range(2):
            _cycle(dog, 2.0, 1.0)
        dog.reset()
        assert not dog.in_safe_mode("app")
        assert dog.trips == 1

    def test_snapshot_restore_round_trip(self):
        dog = _watchdog(window=2)
        for _ in range(2):
            _cycle(dog, 2.0, 1.0)
        body = dog.snapshot()
        clone = _watchdog(window=2)
        clone.restore(body)
        assert clone.trips == dog.trips
        assert clone.in_safe_mode("app")
        # The restored window still carries the residuals: one accurate
        # pair of cycles is enough to release.
        changes = [_cycle(clone, 2.0, 2.0) for _ in range(2)]
        assert "release" in changes
