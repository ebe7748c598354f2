"""RunConfig fleet dispatch + the ``with_()`` sub-config aliasing fix.

The aliasing regression: ``dataclasses.replace`` copies field
*references*, so two sibling ``RunConfig``s produced by ``with_()``
shared one ``FaultConfig`` — and a mutable lifecycle schedule (a plain
list is accepted where the annotation says tuple) mutated through one
config leaked into the other.  Fleet sweeps fan a single base config out
to many runs, which made this bite immediately.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape, run
from repro.faults import FaultConfig, LifecycleEvent
from repro.fleet import FleetConfig
from repro.guardrails import GuardrailConfig


class TestWithDeepCopiesSubConfigs:
    def test_unreplaced_subconfigs_are_copies_not_aliases(self):
        base = RunConfig(
            faults=FaultConfig(seed=3),
            guardrails=GuardrailConfig(power_cap_w=6.0),
            fleet=FleetConfig(nodes=3),
        )
        derived = base.with_(checkpoint=1.0)
        assert derived.faults == base.faults
        assert derived.faults is not base.faults
        assert derived.guardrails == base.guardrails
        assert derived.guardrails is not base.guardrails
        assert derived.fleet == base.fleet
        assert derived.fleet is not base.fleet

    def test_mutable_schedule_no_longer_leaks_between_siblings(self):
        """The failing-first regression for the aliasing bug."""
        schedule = [LifecycleEvent(kind="app_crash", at_s=5.0)]
        base = RunConfig(
            faults=FaultConfig(lifecycle_schedule=schedule)
        )
        derived = base.with_(checkpoint=1.0)
        # Mutating the list behind the *base* config must not change
        # what the derived sibling will inject.
        schedule.append(LifecycleEvent(kind="app_crash", at_s=9.0))
        assert len(base.faults.lifecycle_schedule) == 2
        assert len(derived.faults.lifecycle_schedule) == 1

    def test_replaced_subconfig_is_the_caller_object(self):
        fresh = FaultConfig(seed=9)
        derived = RunConfig(faults=FaultConfig(seed=3)).with_(faults=fresh)
        assert derived.faults is fresh

    def test_none_subconfigs_stay_none(self):
        derived = RunConfig().with_(checkpoint=1.0)
        assert derived.faults is None
        assert derived.fleet is None


class TestFleetDispatch:
    def test_run_dispatches_to_fleet_backend(self):
        config = RunConfig(fleet=FleetConfig(nodes=2, requests=60))
        result = run("round-robin", config=config)
        assert result.router == "round-robin"
        assert result.completed == 60

    def test_fleet_run_rejects_shapes(self):
        config = RunConfig(fleet=FleetConfig(nodes=2, requests=10))
        with pytest.raises(ConfigurationError):
            run("round-robin", RunShape(benchmark="swaptions"), config)

    def test_shapeless_run_without_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            run("hars-e", None, RunConfig())

    def test_fleet_run_rejects_unknown_router(self):
        config = RunConfig(fleet=FleetConfig(nodes=2, requests=10))
        with pytest.raises(ConfigurationError):
            run("priority-queue", config=config)
