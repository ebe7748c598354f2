"""Scalar/vector planner parity: the batchplan bit-identity contract.

The vector backend (:mod:`repro.kernel.batchplan`) must reproduce the
scalar Algorithm 2 oracle exactly — same selected state, same floats in
the winner, same ``SearchResult`` counters — on every input.  The
randomized cross-check here sweeps seeds over spaces, targets, rates,
structural filters and guardrail vetoes, including the forced-fallback
and estimation-failure edges; the equality asserted is dataclass
equality over :class:`~repro.core.search.SearchResult`, i.e. exact
float comparison, not approx.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.calibration import calibrate
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import SearchSpace
from repro.core.power_estimator import PowerEstimator
from repro.core.search import get_next_sys_state
from repro.core.state import SystemState, from_indices, max_state
from repro.errors import EstimationError
from repro.experiments.runner import RunConfig, run
from repro.extensions.escape import full_space
from repro.guardrails.layer import BudgetVeto
from repro.heartbeats.targets import PerformanceTarget
from repro.kernel.batchplan import (
    BOX_MEMO_CELLS,
    PlanRequest,
    PlanService,
    StateSpaceTensor,
    batch_next_sys_state,
)
from repro.kernel.estimation import EstimationLayer
from repro.mphars.freeze import StateDecision
from repro.mphars.manager import PartitionFilter
from repro.platform.cluster import BIG, LITTLE
from repro.platform.spec import odroid_xu3
from tests.golden import GOLDEN_RUNS, SINGLE_SHAPE, load_golden, outcome_digest

SPEC = odroid_xu3()
POWER = calibrate(SPEC)
PERF = PerformanceEstimator()

SPACES = (
    SearchSpace(m=1, n=0, d=1),  # HARS-I overperform
    SearchSpace(m=0, n=1, d=1),  # HARS-I underperform
    SearchSpace(m=4, n=4, d=7),  # HARS-E / HARS-EI
    SearchSpace(m=2, n=3, d=4),
    SearchSpace(m=8, n=8, d=30),  # whole grid, no effective prune
)


def random_state(rng):
    while True:
        c_big = rng.randint(0, SPEC.big.n_cores)
        c_little = rng.randint(0, SPEC.little.n_cores)
        if c_big == 0 and c_little == 0:
            continue
        return from_indices(
            SPEC,
            c_big,
            c_little,
            rng.randrange(len(SPEC.big.frequencies_mhz)),
            rng.randrange(len(SPEC.little.frequencies_mhz)),
        )


def random_target(rng):
    avg = rng.uniform(0.5, 40.0)
    half = avg * rng.uniform(0.01, 0.3)
    return PerformanceTarget(
        min_rate=avg - half, avg_rate=avg, max_rate=avg + half
    )


def both(scenario, perf=PERF, power=POWER):
    """Run one scenario through both backends on fresh layers."""
    scalar_layer = EstimationLayer(perf, power)
    vector_layer = EstimationLayer(perf, power)
    scalar = get_next_sys_state(
        spec=SPEC,
        perf_estimator=scalar_layer.perf,
        power_estimator=scalar_layer.power,
        **scenario,
    )
    vector = batch_next_sys_state(
        spec=SPEC, estimation=vector_layer, **scenario
    )
    return scalar, vector


class EvenCoresOnly:
    """A structural filter that is not a per-axis bound."""

    def __call__(self, candidate, current):
        return candidate.c_big % 2 == 0

    def box_mask(self, box):
        return box.c_big % 2 == 0


class CappedCores:
    """A mask-capable structural filter."""

    def __init__(self, max_big, max_little):
        self.max_big = max_big
        self.max_little = max_little

    def __call__(self, candidate, current):
        return (
            candidate.c_big <= self.max_big
            and candidate.c_little <= self.max_little
        )

    def box_mask(self, box):
        return (box.c_big <= self.max_big) & (
            box.c_little <= self.max_little
        )


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_unfiltered_sweeps_are_bit_identical(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            scenario = dict(
                current=random_state(rng),
                observed_rate=rng.uniform(0.1, 50.0),
                n_threads=rng.choice([1, 2, 4, 8, 16]),
                target=random_target(rng),
                space=rng.choice(SPACES),
            )
            scalar, vector = both(scenario)
            assert scalar == vector

    @pytest.mark.parametrize("seed", range(4))
    def test_filtered_sweeps_are_bit_identical(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(25):
            filters = [
                None,
                EvenCoresOnly(),
                CappedCores(
                    rng.randint(0, SPEC.big.n_cores),
                    rng.randint(0, SPEC.little.n_cores),
                ),
            ]
            scenario = dict(
                current=random_state(rng),
                observed_rate=rng.uniform(0.1, 50.0),
                n_threads=rng.choice([2, 4, 8]),
                target=random_target(rng),
                space=rng.choice(SPACES),
                candidate_filter=rng.choice(filters),
            )
            scalar, vector = both(scenario)
            assert scalar == vector

    @pytest.mark.parametrize("seed", range(4))
    def test_guard_vetoed_sweeps_are_bit_identical(self, seed):
        # BudgetVeto is the guardrail layer's real filter class; both
        # its scalar __call__ and its box_mask come under test, with
        # caps tight enough to veto most of the neighbourhood and the
        # downhill-escape branch (current_power known) active.
        rng = random.Random(2000 + seed)
        for _ in range(25):
            current = random_state(rng)
            n_threads = rng.choice([2, 4, 8])
            layer = EstimationLayer(PERF, POWER)
            try:
                estimate = layer.perf.estimate(current, n_threads)
                current_power = layer.power.estimate(current, estimate)
            except EstimationError:
                current_power = None
            cap = rng.uniform(0.2, 6.0)
            scenario = dict(
                current=current,
                observed_rate=rng.uniform(0.1, 50.0),
                n_threads=n_threads,
                target=random_target(rng),
                space=rng.choice(SPACES),
                guard_filter=BudgetVeto(
                    layer,
                    n_threads,
                    cap,
                    current_power if rng.random() < 0.7 else None,
                ),
            )
            scalar, vector = both(scenario)
            assert scalar == vector
            if scalar.filtered:
                break


class TestEdgeCases:
    def test_forced_fallback_when_filter_rejects_everything(self):
        scenario = dict(
            current=max_state(SPEC),
            observed_rate=5.0,
            n_threads=8,
            target=PerformanceTarget(4.0, 5.0, 6.0),
            space=SearchSpace(m=4, n=4, d=7),
            # What MP-HARS plans with for an app unregistered between
            # Analyze and Plan.
            candidate_filter=PartitionFilter(
                -1, -1, {BIG: None, LITTLE: None}
            ),
        )
        scalar, vector = both(scenario)
        assert scalar == vector
        assert vector.forced_fallback
        assert vector.states_explored == 0

    def test_missing_power_coefficients_count_as_failures(self):
        # Drop the coefficients of half the big-cluster frequencies:
        # candidates there fail estimation in both backends, and the
        # counts must agree exactly.
        fitted = dict(
            (key, POWER.coefficients(*key)) for key in POWER.fitted_points
        )
        partial = type(POWER)(
            {
                key: value
                for key, value in fitted.items()
                if not (
                    key[0] == "big"
                    and SPEC.big.frequencies_mhz.index(key[1]) % 2 == 0
                )
            }
        )
        rng = random.Random(42)
        saw_failures = False
        for _ in range(30):
            scenario = dict(
                current=random_state(rng),
                observed_rate=rng.uniform(0.5, 20.0),
                n_threads=8,
                target=random_target(rng),
                space=rng.choice(SPACES),
            )
            # When the current state itself sits on a dropped frequency
            # and every admitted neighbour fails too, the forced
            # fallback re-raises — in both backends alike.
            try:
                scalar = get_next_sys_state(
                    spec=SPEC,
                    perf_estimator=EstimationLayer(PERF, partial).perf,
                    power_estimator=EstimationLayer(PERF, partial).power,
                    **scenario,
                )
            except EstimationError:
                with pytest.raises(EstimationError):
                    batch_next_sys_state(
                        spec=SPEC,
                        estimation=EstimationLayer(PERF, partial),
                        **scenario,
                    )
                continue
            vector = batch_next_sys_state(
                spec=SPEC,
                estimation=EstimationLayer(PERF, partial),
                **scenario,
            )
            assert scalar == vector
            saw_failures = saw_failures or vector.estimation_failures > 0
        assert saw_failures

    def test_invalid_current_state_raises_in_both_backends(self):
        class RaisingPerf:
            """Stock model except it cannot estimate 4-big states."""

            def estimate(self, state, n_threads):
                if state.c_big == SPEC.big.n_cores:
                    raise EstimationError("unmodelled state")
                return PERF.estimate(state, n_threads)

            def estimate_rate(
                self, candidate, current, observed_rate, n_threads
            ):
                cap_candidate = self.estimate(candidate, n_threads).capacity
                cap_current = self.estimate(current, n_threads).capacity
                return observed_rate * cap_candidate / cap_current

        current = max_state(SPEC)  # c_big == 4: current is unestimable
        scenario = dict(
            current=current,
            observed_rate=5.0,
            n_threads=8,
            target=PerformanceTarget(4.0, 5.0, 6.0),
            space=SearchSpace(m=1, n=1, d=2),
        )
        with pytest.raises(EstimationError):
            get_next_sys_state(
                spec=SPEC,
                perf_estimator=EstimationLayer(RaisingPerf(), POWER).perf,
                power_estimator=EstimationLayer(RaisingPerf(), POWER).power,
                **scenario,
            )
        with pytest.raises(EstimationError):
            batch_next_sys_state(
                spec=SPEC,
                estimation=EstimationLayer(RaisingPerf(), POWER),
                **scenario,
            )

    def test_partially_invalid_neighbourhood_is_bit_identical(self):
        class RaisingPerf:
            def estimate(self, state, n_threads):
                if state.c_big == SPEC.big.n_cores:
                    raise EstimationError("unmodelled state")
                return PERF.estimate(state, n_threads)

            def estimate_rate(
                self, candidate, current, observed_rate, n_threads
            ):
                cap_candidate = self.estimate(candidate, n_threads).capacity
                cap_current = self.estimate(current, n_threads).capacity
                return observed_rate * cap_candidate / cap_current

        rng = random.Random(7)
        for _ in range(15):
            while True:
                current = random_state(rng)
                if current.c_big < SPEC.big.n_cores:
                    break
            scenario = dict(
                current=current,
                observed_rate=rng.uniform(0.5, 20.0),
                n_threads=8,
                target=random_target(rng),
                space=SearchSpace(m=4, n=4, d=7),
            )
            scalar, vector = both(scenario, perf=RaisingPerf())
            assert scalar == vector


def _scaled(power, factor):
    """A different power model: every fitted α scaled by ``factor``."""
    return PowerEstimator(
        {
            point: dataclasses.replace(
                power.coefficients(*point),
                alpha=power.coefficients(*point).alpha * factor,
            )
            for point in power.fitted_points
        }
    )


def _same_tensor(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        for name in ("capacity", "used_big", "used_little", "power", "valid")
    )


class TestTensorInvalidation:
    """A swap to a different model never plans on the old tensor; a swap
    to an equal-valued model may share it.  Either way the layer drops
    its reference and the next lookup counts as one of its builds."""

    @staticmethod
    def _manager(power):
        from repro.core.policy import HARS_E
        from repro.core.manager import HarsManager

        return HarsManager(
            app_name="x264",
            policy=HARS_E,
            perf_estimator=PERF,
            power_estimator=power,
        )

    def test_checkpoint_restore_drops_tensors(self):
        # restore_checkpoint re-adopts the fitted power model through
        # the estimator setter.
        manager = self._manager(POWER)
        layer = manager.knowledge.estimation
        stale = layer.tensor(SPEC, 8)
        other = _scaled(POWER, 2.0)
        donor = self._manager(other)
        manager.restore_checkpoint(sim=None, payload=donor.checkpoint(now_s=1.0))
        assert layer._tensors == {}
        fresh = layer.tensor(SPEC, 8)
        assert fresh is not stale
        assert not _same_tensor(fresh, stale)
        assert _same_tensor(fresh, StateSpaceTensor.build(SPEC, 8, PERF, other))
        payload = self._manager(POWER).checkpoint(now_s=2.0)
        manager.restore_checkpoint(sim=None, payload=payload)
        assert _same_tensor(layer.tensor(SPEC, 8), stale)
        assert layer.stats()["tensor_builds"] == 3

    def test_manager_setter_swap_drops_tensors(self):
        manager = self._manager(POWER)
        layer = manager.knowledge.estimation
        stale = layer.tensor(SPEC, 8)
        manager.power_estimator = _scaled(POWER, 0.5)
        assert layer._tensors == {}
        swapped = layer.tensor(SPEC, 8)
        assert swapped is not stale
        assert not _same_tensor(swapped, stale)
        manager.power_estimator = POWER
        assert _same_tensor(layer.tensor(SPEC, 8), stale)
        assert layer.stats()["tensor_builds"] == 3


def _edge_state(rng):
    """A state with every axis at its bottom, its top or one step in:
    sweeps from it clamp at the state-space edges."""
    tops = (
        SPEC.big.n_cores,
        SPEC.little.n_cores,
        len(SPEC.big.frequencies_mhz) - 1,
        len(SPEC.little.frequencies_mhz) - 1,
    )
    while True:
        indices = [rng.choice((0, 1, top - 1, top)) for top in tops]
        if indices[0] + indices[1] > 0:
            return from_indices(SPEC, *indices)


class TestBoxMemo:
    """A plan from a tensor's memoized boxes equals a cold one: the same
    state and every ``SearchResult`` counter, with each call's own
    ``current`` reaching the filters."""

    SPACES = SPACES + (full_space(SPEC),)

    @staticmethod
    def _layer(n_threads):
        """A layer planning on a freshly built tensor: an empty memo."""
        layer = EstimationLayer(PERF, POWER)
        tensor = StateSpaceTensor.build(SPEC, n_threads, PERF, POWER)
        layer._tensors[(SPEC.name, n_threads)] = tensor
        return layer, tensor

    def _scenarios(self, rng, layer, n_threads):
        for _ in range(60):
            current = _edge_state(rng) if rng.random() < 0.6 else (
                random_state(rng)
            )
            decisions = {
                BIG: rng.choice(list(StateDecision) + [None]),
                LITTLE: rng.choice(list(StateDecision) + [None]),
            }
            estimate = layer.perf.estimate(current, n_threads)
            yield dict(
                current=current,
                observed_rate=rng.uniform(0.1, 50.0),
                n_threads=n_threads,
                target=random_target(rng),
                space=rng.choice(self.SPACES),
                candidate_filter=rng.choice(
                    (
                        None,
                        PartitionFilter(
                            rng.randint(0, SPEC.big.n_cores),
                            rng.randint(0, SPEC.little.n_cores),
                            decisions,
                        ),
                    )
                ),
                guard_filter=rng.choice(
                    (
                        None,
                        BudgetVeto(
                            layer,
                            n_threads,
                            rng.uniform(0.5, 6.0),
                            layer.power.estimate(current, estimate),
                        ),
                    )
                ),
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_memoized_plans_equal_cold_plans(self, seed):
        rng = random.Random(3000 + seed)
        n_threads = 8
        warm, tensor = self._layer(n_threads)
        largest = 0
        for scenario in self._scenarios(rng, warm, n_threads):
            cold, _ = self._layer(n_threads)
            expected = batch_next_sys_state(
                spec=SPEC, estimation=cold, **scenario
            )
            space = scenario["space"]
            key = (scenario["current"].indices(SPEC), space.m, space.n, space.d)
            got = batch_next_sys_state(spec=SPEC, estimation=warm, **scenario)
            assert got == expected
            entry = tensor.admissions[key]
            # The repeat answers from the memo.
            got = batch_next_sys_state(spec=SPEC, estimation=warm, **scenario)
            assert got == expected
            assert tensor.admissions[key] is entry
            largest = max(largest, len(entry[0]))
            cells = sum(map(len, tensor.boxes.values()))
            assert cells < BOX_MEMO_CELLS + largest

    def test_sweeps_that_clamp_alike_share_one_box(self):
        layer, tensor = self._layer(4)
        target = PerformanceTarget(min_rate=9.0, avg_rate=10.0, max_rate=11.0)
        escape = full_space(SPEC)
        rng = random.Random(7)
        centres = {random_state(rng) for _ in range(12)}
        for current in centres:
            batch_next_sys_state(
                spec=SPEC,
                current=current,
                observed_rate=5.0,
                n_threads=4,
                target=target,
                space=escape,
                estimation=layer,
            )
        # Every escape sweep spans the whole space: one box, and one
        # admission per centre.
        assert len(tensor.boxes) == 1
        assert len(tensor.admissions) == len(centres)
        (box,) = tensor.boxes.values()
        assert box.current is None
        with pytest.raises(ValueError):
            box.power[0] = 0.0


class TestPlanService:
    def test_plan_many_matches_sequential_plans(self):
        rng = random.Random(11)
        layer = EstimationLayer(PERF, POWER)
        requests = [
            PlanRequest(
                spec=SPEC,
                current=random_state(rng),
                observed_rate=rng.uniform(0.5, 20.0),
                n_threads=8,
                target=random_target(rng),
                space=SearchSpace(m=4, n=4, d=7),
                estimation=layer,
            )
            for _ in range(6)
        ]
        service = PlanService()
        batched = service.plan_many(requests)
        sequential = [
            batch_next_sys_state(
                spec=request.spec,
                current=request.current,
                observed_rate=request.observed_rate,
                n_threads=request.n_threads,
                target=request.target,
                space=request.space,
                estimation=request.estimation,
            )
            for request in requests
        ]
        assert batched == sequential
        assert service.batch_sizes == [6]
        assert service.plans == 6
        # All six plans shared one tensor build.
        assert layer.stats()["tensor_builds"] == 1


class TestEndToEndProfileParity:
    """Whole runs reproduce the digests recorded when the engine still
    had separate scalar-planner (``fast``) and tensorized-planner
    (``vector``) profiles, which this suite proved byte-identical.  The
    single remaining path must keep producing those bytes; the digests
    and their regeneration command live in ``tests/golden``."""

    @pytest.mark.parametrize("version", ["hars-i", "hars-e", "hars-ei"])
    def test_single_app_versions(self, version):
        name = f"{version}-swaptions-x80"
        assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]

    def test_mp_hars_multi_app(self):
        name = "mp-hars-e-swaptions-bodytrack-x60"
        assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]

    def test_vector_run_exports_planner_telemetry(self):
        from repro.telemetry import flatten_snapshot

        outcome = run("hars-e", SINGLE_SHAPE, RunConfig(telemetry=True))
        flat = flatten_snapshot(outcome.telemetry.registry.snapshot())
        builds = sum(
            value
            for (name, labels), value in flat.items()
            if name == "estimation_cache_lookups"
            and dict(labels).get("model") == "tensor"
            and dict(labels).get("result") == "builds"
        )
        assert builds >= 1
        rebuilds = sum(
            value
            for (name, _), value in flat.items()
            if name == "planner_tensor_rebuilds_total"
        )
        assert rebuilds >= 1
        assert any(
            name.startswith("planner_batch_apps") for name, _ in flat
        )
