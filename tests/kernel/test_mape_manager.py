"""The MapeManager contract, held by HARS, adaptive HARS and MP-HARS.

One base class owns the estimator/counter façade, the overhead formula
and the shared checkpoint fields; the telemetry hub, the guardrail
layer and the ACP policy swap select managers by that type.  Every
check here runs once per manager class.
"""

import pytest

from repro.acp.session import AcpSession
from repro.core.manager import HarsManager
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape, run
from repro.extensions.adaptive_manager import AdaptiveHarsManager
from repro.extensions.ratio_learning import OnlineRatioLearner
from repro.guardrails import GuardrailConfig
from repro.guardrails.layer import GuardrailLayer
from repro.heartbeats.targets import PerformanceTarget
from repro.kernel.mape import MapeManager
from repro.mphars.manager import MpHarsManager
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.supervision import Checkpointer, Supervisor, SupervisorConfig
from repro.telemetry import flatten_snapshot
from repro.telemetry.hub import MapeTelemetry, TelemetryHub
from repro.workloads.parsec import make_benchmark

APPS = ("swaptions", "bodytrack")


def make_manager(cls, power, **kwargs):
    if cls is MpHarsManager:
        return MpHarsManager(HARS_E, PerformanceEstimator(), power, **kwargs)
    if cls is AdaptiveHarsManager:
        kwargs.setdefault("ratio_learner", OnlineRatioLearner())
    return cls(APPS[0], HARS_E, PerformanceEstimator(), power, **kwargs)


MANAGERS = pytest.mark.parametrize(
    "cls", [HarsManager, AdaptiveHarsManager, MpHarsManager]
)


@MANAGERS
class TestFacade:
    def test_is_a_mape_manager(self, cls, power_estimator):
        assert isinstance(make_manager(cls, power_estimator), MapeManager)

    def test_adapt_every_is_validated(self, cls, power_estimator):
        with pytest.raises(ConfigurationError, match="adapt_every"):
            make_manager(cls, power_estimator, adapt_every=0)

    def test_estimator_setters_reach_the_estimation_layer(
        self, cls, power_estimator
    ):
        manager = make_manager(cls, power_estimator)
        perf = PerformanceEstimator(r0=2.0)
        manager.perf_estimator = perf
        manager.power_estimator = power_estimator
        estimation = manager.knowledge.estimation
        assert estimation.perf.inner is perf
        assert manager.perf_estimator is estimation.perf
        assert estimation.power.inner is power_estimator
        assert manager.power_estimator is estimation.power

    def test_adapt_every_setter_reaches_the_monitor(
        self, cls, power_estimator
    ):
        manager = make_manager(cls, power_estimator)
        manager.adapt_every = 7
        assert manager.mape.monitor.adapt_every == 7
        assert manager.adapt_every == 7

    def test_counters_read_the_loop(self, cls, power_estimator):
        manager = make_manager(cls, power_estimator)
        manager.knowledge.states_explored = 12
        manager.knowledge.adaptations = 3
        manager.mape.monitor.polled = 30
        manager.mape.held_cycles = 2
        assert manager.states_explored_total == 12
        assert manager.adaptations == 3
        assert manager.heartbeats_polled == 30
        assert manager.held_cycles == 2

    def test_cpu_overhead_follows_its_formula(self, cls, power_estimator):
        manager = make_manager(cls, power_estimator)
        manager.knowledge.states_explored = 12
        manager.mape.monitor.polled = 30
        expected = (
            12 * manager.state_eval_cost_s + 30 * manager.poll_cost_s
        )
        assert manager.cpu_overhead_seconds() == expected
        if cls is MpHarsManager:
            assert manager.poll_cost_s == 0.0
            assert manager.cpu_overhead_seconds() == (
                12 * manager.state_eval_cost_s
            )

    def test_checkpoint_body_keys(self, cls, power_estimator):
        manager = make_manager(cls, power_estimator)
        body = manager.checkpoint(1.0)["body"]
        assert body["controller"] == cls.__name__
        assert set(body["counters"]) == set(manager.mape.counters())
        shared = {"controller", "power_model", "counters"}
        own = (
            {"apps", "clusters", "last_rate", "released", "removed"}
            if cls is MpHarsManager
            else {"app_name", "state", "ratio"}
        )
        assert set(body) == shared | own


def _stacked_sim(cls, spec, power):
    """The manager under supervision, checkpoints, guardrails and
    telemetry — every other controller the selectors must skip."""
    sim = Simulation(spec)
    names = APPS if cls is MpHarsManager else APPS[:1]
    for seed, name in enumerate(names):
        model = make_benchmark(name, 40, 4)
        model.reset(seed)
        sim.add_app(SimApp(name, model, PerformanceTarget(4.0, 5.0, 6.0)))
    manager = sim.add_controller(make_manager(cls, power))
    sim.add_controller(Supervisor(SupervisorConfig()))
    sim.add_controller(Checkpointer(cadence_s=1.0))
    layer = sim.add_controller(
        GuardrailLayer(GuardrailConfig(power_cap_w=4.0, damper_window=8))
    )
    hub = sim.add_controller(TelemetryHub())
    sim.run(until_s=3.0)
    return sim, manager, layer, hub


@MANAGERS
def test_hub_and_guardrails_pick_exactly_the_manager(
    cls, xu3, power_estimator
):
    sim, manager, layer, hub = _stacked_sim(cls, xu3, power_estimator)
    assert [c for c in sim.controllers if isinstance(c, MapeManager)] == [
        manager
    ]
    assert isinstance(manager.mape.telemetry, MapeTelemetry)
    assert manager.mape.guard is layer
    assert manager.mape.planner.guard is layer
    labelled = {
        dict(labels)["controller"]
        for (name, labels) in flatten_snapshot(hub.snapshot())
        if name.startswith("mape_") or name == "estimation_cache_lookups"
    }
    assert labelled == {manager.checkpoint_id}


@pytest.mark.parametrize(
    "version, n_apps", [("hars-e", 1), ("mp-hars-e", 2)]
)
def test_acp_swap_picks_exactly_the_managers(version, n_apps):
    shapes = [RunShape(benchmark=name, n_units=40) for name in APPS[:n_apps]]
    session = AcpSession(
        "s",
        version,
        shapes if n_apps > 1 else shapes[0],
        RunConfig(supervision=True, checkpoint=1.0),
    )
    managers = [
        c
        for c in session.prepared.sim.controllers
        if isinstance(c, MapeManager)
    ]
    assert len(managers) == 1
    result = session.swap_policy("hars-i", adapt_every=3)
    assert result["controllers"] == [managers[0].checkpoint_id]
    assert managers[0].policy.name == "HARS-I"
    assert managers[0].adapt_every == 3


def test_cons_i_has_no_mape_series_and_refuses_a_swap():
    shapes = [RunShape(benchmark=name, n_units=40) for name in APPS]
    outcome = run("cons-i", shapes, RunConfig(telemetry=True))
    series = flatten_snapshot(outcome.telemetry.registry.snapshot())
    assert not [name for name, _ in series if name.startswith("mape_")]
    session = AcpSession("s", "cons-i", shapes, RunConfig())
    with pytest.raises(ConfigurationError, match="no policy-driven manager"):
        session.swap_policy("hars-i")
