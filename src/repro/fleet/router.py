"""Pluggable request routing: the fleet's load balancer policies.

Routers are pure decision functions over the *previous tick's* node
state — the cluster routes a tick's arrivals before stepping any node,
so every router sees the same snapshot no matter how the nodes are
stepped.  That ordering, plus node-local simulation state, is the whole
determinism argument.  The snapshot reaches a router as a
:class:`Candidates`: the tick's routable nodes with per-lane wait
vectors built once per tick, so a route reads cached waits instead of
asking every node.

Three policies:

* ``round-robin``   — the classic baseline: next node, base lane.
* ``least-loaded``  — join the shortest (estimated-wait) base queue.
* ``deadline-risk`` — the Hurry-up policy ("Hurry-up: Scaling Web
  Search on Big/Little Multi-core Architectures"): estimate the
  request's completion time on the best base lane; if it threatens the
  deadline, promote the request to a hot lane — which MP-HARS grows
  onto the big cores — otherwise keep it on the energy-efficient base
  lane.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.node import FleetNode
from repro.fleet.trace import Request


class Candidates:
    """One tick's routable nodes plus lazily built per-lane wait vectors.

    A sequence of :class:`~repro.fleet.node.FleetNode` (``len``, index,
    iterate; falsy when empty) that also caches every node's estimated
    wait.  Every candidate is a row of one
    :class:`~repro.fleet.engine.FleetEngine`, the cluster's.  A lane's
    vector is built on its first use in the tick by one gather over the
    candidates' engine rows (:meth:`FleetEngine.est_waits`, the array
    twin of :meth:`FleetNode.est_wait_s`), and from then on a routing
    decision reads the vector instead of asking every node.

    The cache is exact because of one invariant of the cluster's tick:
    within the routing phase only ``submit`` changes a node's
    ``backlog_units`` (cancels run before the phase, in the resilience
    pre-phase, and ``advance`` after it, when the nodes step), and the
    service-velocity estimate changes only in ``FleetEngine.step``.  Every
    routing-phase enqueue goes through :meth:`enqueue`, which refreshes
    the one entry it changed, so each vector always equals a fresh scan.
    Build one ``Candidates`` per tick after the pre-phase and drop it
    before any node steps.
    """

    __slots__ = ("_nodes", "_waits", "_rows")

    def __init__(self, nodes: Sequence[FleetNode]):
        self._nodes = nodes
        self._waits: Dict[str, List[float]] = {}
        self._rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, position: int) -> FleetNode:
        return self._nodes[position]

    def __iter__(self) -> Iterator[FleetNode]:
        return iter(self._nodes)

    def waits(self, lane: str) -> List[float]:
        """Every candidate's estimated wait on ``lane``, candidate order.

        The returned list is the live cache: read it, never mutate it.
        """
        waits = self._waits.get(lane)
        if waits is None:
            nodes = self._nodes
            engine = nodes[0].engine
            if self._rows is None:
                if any(node._engine is not engine for node in nodes):
                    raise SimulationError(
                        "routing candidates span more than one engine"
                    )
                self._rows = np.array([node._row for node in nodes])
            waits = self._waits[lane] = engine.est_waits(self._rows, lane)
        return waits

    def wait_s(self, position: int, lane: str) -> float:
        """Estimated wait on ``lane`` of the candidate at ``position``."""
        return self.waits(lane)[position]

    def argmin(self, lane: str, skip: Optional[int] = None) -> Optional[int]:
        """Position of the smallest estimated wait (ties: lowest position).

        With ``skip``, the candidate at that position is left out (the
        hedge path: the best node *other than* the primary) and the
        result is still a position in this sequence, or ``None`` when
        nothing is left.  The set must not be empty: callers defer
        instead of routing into nothing.
        """
        waits = self.waits(lane)
        if skip is None:
            return waits.index(min(waits))
        rest = waits[:skip] + waits[skip + 1:]
        if not rest:
            return None
        best = rest.index(min(rest))
        return best if best < skip else best + 1

    def enqueue(self, position: int, request: Request, lane: str) -> FleetNode:
        """Admit ``request`` on the candidate at ``position``; refresh its
        cached wait on ``lane`` and return the node."""
        node = self._nodes[position]
        node.enqueue(request, lane)
        waits = self._waits.get(lane)
        if waits is not None:
            waits[position] = node.est_wait_s(lane)
        return node


class Router(abc.ABC):
    """One routing policy; ``route`` returns ``(node_index, lane)``."""

    name: str = ""

    @abc.abstractmethod
    def route(
        self, request: Request, nodes: Candidates, now_s: float
    ) -> Tuple[int, str]:
        """Pick the node and lane for one arriving request.

        ``nodes`` is the tick's :class:`Candidates`, possibly a filtered
        subset of the fleet (the supervisor hides unhealthy nodes under
        failover); routers read estimated waits from its per-lane wait
        vectors.  The returned index is into *that sequence*, and an
        empty sequence raises :class:`~repro.errors.ConfigurationError`
        — callers defer the request instead of routing it into nothing.
        """


class RoundRobinRouter(Router):
    """Cycle through the nodes; everything rides the base lane."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(
        self, request: Request, nodes: Candidates, now_s: float
    ) -> Tuple[int, str]:
        _require(nodes, self.name)
        # The counter is reduced against the *current* candidate count,
        # never stored pre-reduced: the node list shrinks and grows as
        # the supervisor quarantines and revives nodes, and a raw index
        # held across ticks would go stale (or divide by zero above).
        index = self._next % len(nodes)
        self._next = index + 1
        return index, "base"


class LeastLoadedRouter(Router):
    """Join the base lane with the smallest estimated wait."""

    name = "least-loaded"

    def route(
        self, request: Request, nodes: Candidates, now_s: float
    ) -> Tuple[int, str]:
        _require(nodes, self.name)
        return nodes.argmin("base"), "base"


class DeadlineRiskRouter(Router):
    """Hurry-up routing: deadline-risk requests go to the hot lane.

    ``margin`` is the fraction of the remaining deadline budget the
    estimated completion time may consume before the request counts as
    at-risk (lower = more eager promotion to big cores).
    """

    name = "deadline-risk"

    def __init__(self, margin: float = 0.6):
        if not 0 < margin <= 1:
            raise ConfigurationError("margin must be in (0, 1]")
        self.margin = margin

    def route(
        self, request: Request, nodes: Candidates, now_s: float
    ) -> Tuple[int, str]:
        _require(nodes, self.name)
        base_index = nodes.argmin("base")
        base_node = nodes[base_index]
        service_s = request.service_units / base_node.nominal_rate("base") * (
            base_node.config.lane_threads
        )
        eta_s = nodes.wait_s(base_index, "base") + service_s
        budget_s = request.deadline_s - now_s
        if eta_s <= self.margin * budget_s:
            return base_index, "base"
        return nodes.argmin("hot"), "hot"


def _require(nodes: Sequence[FleetNode], policy: str) -> None:
    """Refuse an empty candidate set: the supervisor filters unhealthy
    nodes out, and the caller must defer rather than route."""
    if not nodes:
        raise ConfigurationError(
            f"{policy} router asked to route with no nodes"
        )


ROUTERS: Dict[str, Type[Router]] = {
    router.name: router
    for router in (RoundRobinRouter, LeastLoadedRouter, DeadlineRiskRouter)
}


def make_router(name: str) -> Router:
    """Instantiate a router by policy name."""
    cls = ROUTERS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown router {name!r}; valid: {tuple(sorted(ROUTERS))}"
        )
    return cls()
