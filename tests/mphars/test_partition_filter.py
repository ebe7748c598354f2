"""PartitionFilter's two forms state one rule (partition caps + Table 4.3).

The vector planner applies only ``box_mask``; the scalar oracle calls the
filter per candidate.  This pins the mask to the call at every index of
a candidate box, for every pair of per-cluster frequency decisions.
"""

import random

import numpy as np
import pytest

from repro.core.perf_estimator import PerformanceEstimator
from repro.core.state import SystemState, from_indices
from repro.kernel.batchplan import CandidateBox
from repro.kernel.estimation import EstimationLayer
from repro.mphars.freeze import StateDecision
from repro.mphars.manager import PartitionFilter
from repro.platform.cluster import BIG, LITTLE

DECISIONS = (None, StateDecision.KEEP, StateDecision.INC, StateDecision.DEC)


def _around(rng, index, top):
    """A clamped index range around ``index``, as the planner sweeps."""
    low = max(0, index - rng.randint(0, 3))
    high = min(top, index + rng.randint(0, 3))
    return np.arange(low, high + 1)


def _candidate(box, i):
    if box.c_big[i] + box.c_little[i] == 0:
        # state_at validates, and the zero-core row allocates nothing.
        return SystemState(
            c_big=0,
            c_little=0,
            f_big_mhz=int(box.f_big_mhz[i]),
            f_little_mhz=int(box.f_little_mhz[i]),
        )
    return box.state_at(i)


@pytest.mark.parametrize("big", DECISIONS)
@pytest.mark.parametrize("little", DECISIONS)
def test_box_mask_equals_the_call_at_every_index(
    xu3, power_estimator, big, little
):
    layer = EstimationLayer(PerformanceEstimator(), power_estimator)
    tensor = layer.tensor(xu3, 4)
    n_big, n_little = xu3.big.n_cores, xu3.little.n_cores
    tops = (
        n_big,
        n_little,
        len(xu3.big.frequencies_mhz) - 1,
        len(xu3.little.frequencies_mhz) - 1,
    )
    rng = random.Random(f"{big}:{little}")
    for _ in range(4):
        indices = (rng.randint(1, n_big),) + tuple(
            rng.randint(0, top) for top in tops[1:]
        )
        current = from_indices(xu3, *indices)
        box = CandidateBox(
            xu3,
            current,
            tensor,
            *(_around(rng, i, top) for i, top in zip(indices, tops)),
        )
        rule = PartitionFilter(
            max_big=rng.randint(-1, n_big),
            max_little=rng.randint(-1, n_little),
            decisions={BIG: big, LITTLE: little},
        )
        mask = np.asarray(rule.box_mask(box))
        assert mask.dtype == bool and mask.shape == (len(box),)
        assert mask.tolist() == [
            rule(_candidate(box, i), current) for i in range(len(box))
        ]
