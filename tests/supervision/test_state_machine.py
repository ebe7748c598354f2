"""Unit tests for the quarantine state machine and its ledger."""

import pytest

from repro.errors import ConfigurationError
from repro.supervision import (
    AppHealth,
    FailureKind,
    QuarantineLedger,
    QuarantineRecord,
    SupervisorConfig,
)
from repro.supervision.supervisor import EVICT_FACTOR, QUARANTINE_FACTOR


class TestSupervisorConfig:
    def test_defaults_validate(self):
        config = SupervisorConfig()
        assert config.grace_factor > 0
        assert EVICT_FACTOR > QUARANTINE_FACTOR > 1

    def test_deadline_scales_with_min_rate(self):
        config = SupervisorConfig(grace_factor=4.0)
        assert config.deadline_s(2.0) == pytest.approx(2.0)
        assert config.deadline_s(0.5) == pytest.approx(8.0)

    def test_deadline_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig().deadline_s(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grace_factor": 0.0},
            {"grace_factor": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(**kwargs)


class TestQuarantineLedger:
    def test_ensure_is_idempotent(self):
        ledger = QuarantineLedger()
        first = ledger.ensure("a")
        assert ledger.ensure("a") is first
        assert first.status is AppHealth.HEALTHY

    def test_unknown_record_raises(self):
        with pytest.raises(ConfigurationError):
            QuarantineLedger().record("ghost")

    def test_escalation_stamps_timestamps(self):
        ledger = QuarantineLedger()
        ledger.transition("a", 1.0, AppHealth.SUSPECT, FailureKind.HUNG)
        ledger.transition("a", 2.0, AppHealth.QUARANTINED, FailureKind.HUNG)
        ledger.transition("a", 3.0, AppHealth.EVICTED, FailureKind.HUNG)
        record = ledger.record("a")
        assert record.suspected_at == 1.0
        assert record.quarantined_at == 2.0
        assert record.evicted_at == 3.0
        assert record.failure is FailureKind.HUNG
        assert [status for _, status, _ in record.transitions] == [
            "suspect",
            "quarantined",
            "evicted",
        ]

    def test_recovery_counts_and_clears_failure(self):
        ledger = QuarantineLedger()
        ledger.transition("a", 1.0, AppHealth.SUSPECT, FailureKind.HUNG)
        ledger.transition("a", 2.0, AppHealth.HEALTHY)
        record = ledger.record("a")
        assert record.status is AppHealth.HEALTHY
        assert record.recoveries == 1
        assert record.failure is None
        ledger.transition("a", 3.0, AppHealth.SUSPECT, FailureKind.RUNAWAY)
        ledger.transition("a", 4.0, AppHealth.QUARANTINED, FailureKind.RUNAWAY)
        ledger.transition("a", 5.0, AppHealth.HEALTHY)
        assert record.recoveries == 2

    def test_healthy_to_healthy_is_not_a_recovery(self):
        ledger = QuarantineLedger()
        ledger.ensure("a")
        ledger.transition("a", 1.0, AppHealth.HEALTHY)
        assert ledger.record("a").recoveries == 0

    def test_evicted_ordering(self):
        ledger = QuarantineLedger()
        ledger.transition("b", 5.0, AppHealth.EVICTED, FailureKind.CRASHED)
        ledger.transition("a", 2.0, AppHealth.EVICTED, FailureKind.HUNG)
        ledger.ensure("c")
        assert ledger.evicted() == ("a", "b")

    def test_roundtrip_through_dict(self):
        ledger = QuarantineLedger()
        ledger.transition("a", 1.0, AppHealth.SUSPECT, FailureKind.HUNG, "x")
        ledger.transition("a", 2.0, AppHealth.HEALTHY, detail="resumed")
        ledger.transition("b", 3.0, AppHealth.EVICTED, FailureKind.CRASHED)
        restored = QuarantineLedger.from_dict(ledger.as_dict())
        assert restored.as_dict() == ledger.as_dict()
        assert restored.record("a").recoveries == 1
        assert restored.record("b").failure is FailureKind.CRASHED

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            QuarantineLedger.from_dict({"a": {"status": "weird"}})
        with pytest.raises(ConfigurationError):
            QuarantineLedger.from_dict("not-a-dict")


class TestQuarantineRecord:
    def test_record_roundtrip(self):
        record = QuarantineRecord(
            app_name="a",
            status=AppHealth.QUARANTINED,
            failure=FailureKind.RUNAWAY,
            recoveries=2,
            suspected_at=1.0,
            quarantined_at=2.0,
            transitions=[(1.0, "suspect", "why"), (2.0, "quarantined", "")],
        )
        clone = QuarantineRecord.from_dict(record.as_dict())
        assert clone == record

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            QuarantineRecord.from_dict({"app_name": "a"})
