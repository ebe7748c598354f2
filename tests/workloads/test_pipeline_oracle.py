"""``PipelineWorkload.advance`` against its reference, bit for bit.

The model advances only the stages that hold a grant and walks only
their granted members.  :func:`reference_advance` is the full walk it
replaced — every stage, every member — kept here as the oracle: on
seeded grant maps and queue states, both must leave every queue, the
source, the output and each granted thread's consumption with the same
``repr``.
"""

import copy
import math
import random

import pytest

from repro.workloads.base import AdvanceResult, WorkloadTraits
from repro.workloads.parsec import make_benchmark
from repro.workloads.pipeline import _EPSILON, PipelineWorkload, StageSpec


def reference_advance(model, grants):
    """The full walk over every stage and member (the oracle)."""
    if model._done:
        return AdvanceResult(consumed={}, done=True)
    consumed = dict.fromkeys(grants, 0.0)

    # Drain back-to-front so an item moves at most one stage per tick.
    stages = model.stages
    queues = model._queues
    last = len(stages) - 1
    for stage_index in range(last, -1, -1):
        members = model._stage_members[stage_index]
        stage_grants = [grants.get(i, 0.0) for i in members]
        capacity_work = sum(stage_grants)
        capacity_items = capacity_work / stages[stage_index].cost_per_item
        if stage_index == 0:
            available = model._source_remaining
        else:
            available = queues[stage_index]
        if stage_index < last:
            space = model.queue_depth - queues[stage_index + 1]
        else:
            space = math.inf
        processed = max(0.0, min(capacity_items, available, space))

        if stage_index == 0:
            model._source_remaining -= processed
        else:
            queues[stage_index] -= processed
        if stage_index < last:
            queues[stage_index + 1] += processed
        else:
            model._output += processed

        # Attribute consumed work to the stage's threads pro rata.
        if capacity_items > _EPSILON and processed > 0:
            fraction = processed / capacity_items
            for i, grant in zip(members, stage_grants):
                consumed[i] = consumed.get(i, 0.0) + grant * fraction

    emitted_now = int(model._output + _EPSILON) - model._emitted
    if not emitted_now:
        return AdvanceResult(consumed=consumed)
    model._emitted += emitted_now
    if model._emitted >= model.n_items:
        model._done = True
    return AdvanceResult(
        consumed=consumed,
        heartbeats=emitted_now,
        heartbeat_tags=("pipeline",) * emitted_now,
        done=model._done,
    )


def _state(model):
    return repr(
        (
            model._source_remaining,
            model._queues,
            model._output,
            model._emitted,
            model._done,
        )
    )


def _outcome(result, grants):
    # The oracle also writes ``0.0`` for the ungranted members of a
    # stage that processed; the granted threads' values must match.
    return repr(
        (
            [(i, result.consumed[i]) for i in grants],
            result.heartbeats,
            result.heartbeat_tags,
            result.done,
        )
    )


def _check(model, grants):
    """One advance of ``model`` and of a copy through the oracle."""
    twin = copy.deepcopy(model)
    before = list(grants.items())
    result = model.advance(grants)
    expected = reference_advance(twin, grants)
    assert list(grants.items()) == before
    assert list(result.consumed) == list(grants)
    assert all(
        value == 0.0
        for i, value in expected.consumed.items()
        if i not in grants
    )
    assert _outcome(result, grants) == _outcome(expected, grants)
    assert _state(model) == _state(twin)


def _grants(rng, model, partial):
    """Round 1 grants whole runnable stages; a later round grants the
    threads still hungry, any subset, in placement (unsorted) order."""
    if partial:
        chosen = [i for i in range(model.n_threads) if rng.random() < 0.4]
    else:
        chosen = list(model.runnable_threads())
    rng.shuffle(chosen)
    grants = {}
    for i in chosen:
        roll = rng.random()
        if roll < 0.05:
            grants[i] = 0.0
        elif roll < 0.1:
            grants[i] = _EPSILON * rng.random()
        else:
            grants[i] = rng.uniform(0.0, 0.05) * rng.choice((1, 10, 100))
    return grants


def _scramble(rng, model):
    """A random queue state: empty, full, or anywhere between."""
    depth = model.queue_depth
    for s in range(1, len(model._queues)):
        model._queues[s] = rng.choice(
            (0.0, float(depth), depth - _EPSILON / 2, rng.uniform(0, depth))
        )
    model._source_remaining = rng.choice((0.0, rng.uniform(0, model.n_items)))


@pytest.mark.parametrize("seed", range(6))
def test_advance_matches_the_full_walk(seed):
    rng = random.Random(seed)
    model = make_benchmark("ferret", n_units=400, n_threads=rng.choice((1, 2, 4)))
    for step in range(300):
        if step % 20 == 10:
            _scramble(rng, model)
        _check(model, _grants(rng, model, partial=rng.random() < 0.4))
        if model.is_done():
            break


def test_a_full_output_queue_and_partial_grants():
    stages = (
        StageSpec("in", 1, 0.5),
        StageSpec("mid", 3, 1.0),
        StageSpec("out", 1, 0.25),
    )
    model = PipelineWorkload(WorkloadTraits(name="pipe"), stages, 12, 2)
    model._queues[2] = 2.0  # mid's output queue is full
    model._queues[1] = 1.5
    _check(model, {3: 0.7, 1: 0.4, 0: 1.0})  # mid blocked: no space
    _check(model, {4: 0.3, 2: 0.6})  # round 2: part of the stages
    _check(model, {2: 0.25, 1: 0.5, 3: 0.125, 0: 2.0, 4: 1.0})
    _check(model, {})
