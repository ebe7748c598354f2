"""Load-tracking constants and helpers for the GTS scheduler model.

Linux's big.LITTLE Global Task Scheduling migrates tasks between the
clusters by comparing each task's tracked load against two thresholds:
an *up-migration* threshold (heavy tasks move to big) and a
*down-migration* threshold (light tasks move to little).  The tracked
signal itself is ``SimThread.load``, the exponentially-decayed runnable
demand that :meth:`repro.sim.engine.Simulation.step` updates every tick.
"""

from __future__ import annotations

#: Load above which a task prefers the big cluster (fraction of full).
UP_MIGRATION_THRESHOLD = 0.80

#: Load below which a task prefers the little cluster.
DOWN_MIGRATION_THRESHOLD = 0.25


def prefers_big(load, on_big, up: float, down: float):
    """Whether a task with ``load`` prefers the big cluster.

    At or above ``up`` it does, at or below ``down`` it does not, and in
    between it keeps the cluster it is on (hysteresis).  Elementwise
    (``>=``, ``>``, ``&``, ``|``), so it takes a Python float and bool
    or numpy arrays alike: GTS asks it per thread, the fleet engine for
    every node's thread slot at once.
    """
    return (load >= up) | ((load > down) & on_big)
