"""Routing strategy representation and validation.

A strategy maps a flow ``(s, t)`` to a vector of *splitting ratios* aligned
with the network's edge list: entry ``e = (u, v)`` is the fraction of the
``(s, t)`` flow arriving at ``u`` that is forwarded along ``e``.  The paper's
constraints (§IV-A) become, per flow:

1. every vertex that carries flow (other than ``t``) forwards all of it:
   its outgoing ratios sum to 1;
2. the destination absorbs: ``t``'s outgoing ratios are all 0.

Vertices that can never carry the flow may have all-zero ratios — the
softmin translation produces exactly that for vertices pruned out of the
flow's DAG.

Two concrete classes cover the use cases:

* :class:`FlowRouting` — per-(s, t) ratio table (what softmin produces);
* :class:`DestinationRouting` — ratios depend only on ``t`` (what
  shortest-path and LP-derived routings produce); the simulator exploits
  this to aggregate all sources per destination.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.graphs.network import Network

RATIO_TOLERANCE = 1e-6


class RoutingValidationError(ValueError):
    """A routing strategy violates the paper's §IV-A constraints."""


class RoutingStrategy:
    """Abstract strategy: per-flow splitting ratios over the edge list."""

    def __init__(self, network: Network):
        self.network = network

    def ratios(self, source: int, target: int) -> np.ndarray:
        """Splitting-ratio vector for flow ``(source, target)``.

        Shape ``(num_edges,)``; see module docstring for semantics.
        """
        raise NotImplementedError

    def _check_pair(self, source: int, target: int) -> None:
        n = self.network.num_nodes
        if not (0 <= source < n and 0 <= target < n):
            raise ValueError(f"flow ({source},{target}) out of range for {n} nodes")
        if source == target:
            raise ValueError("flow source and target must differ")


class FlowRouting(RoutingStrategy):
    """Dense per-flow ratio table.

    Parameters
    ----------
    network:
        The topology the ratios refer to.
    table:
        Mapping ``(s, t) -> ratio vector``.  Missing pairs raise ``KeyError``
        on access, which surfaces workload/routing mismatches early.
    """

    def __init__(self, network: Network, table: dict[tuple[int, int], np.ndarray]):
        super().__init__(network)
        self._table: dict[tuple[int, int], np.ndarray] = {}
        for (s, t), vector in table.items():
            vector = np.asarray(vector, dtype=np.float64)
            if vector.shape != (network.num_edges,):
                raise ValueError(
                    f"ratio vector for flow ({s},{t}) has shape {vector.shape}, "
                    f"expected ({network.num_edges},)"
                )
            self._table[(int(s), int(t))] = vector

    def ratios(self, source: int, target: int) -> np.ndarray:
        self._check_pair(source, target)
        return self._table[(source, target)]

    def flows(self) -> Iterable[tuple[int, int]]:
        """The (s, t) pairs this routing defines ratios for."""
        return self._table.keys()


class DestinationRouting(RoutingStrategy):
    """Ratios shared by every source of a destination.

    Parameters
    ----------
    network:
        The topology.
    per_destination:
        Array of shape ``(num_nodes, num_edges)``: row ``t`` holds the ratio
        vector used by all flows destined to ``t``.
    """

    def __init__(self, network: Network, per_destination: np.ndarray):
        super().__init__(network)
        per_destination = np.asarray(per_destination, dtype=np.float64)
        expected = (network.num_nodes, network.num_edges)
        if per_destination.shape != expected:
            raise ValueError(
                f"per_destination has shape {per_destination.shape}, expected {expected}"
            )
        self._per_destination = per_destination

    def ratios(self, source: int, target: int) -> np.ndarray:
        self._check_pair(source, target)
        return self._per_destination[target]

    def destination_ratios(self, target: int) -> np.ndarray:
        """Ratio vector for destination ``target`` (any source)."""
        return self._per_destination[target]

    def destination_table(self) -> np.ndarray:
        """The full ``(num_nodes, num_edges)`` ratio table.

        Row ``t`` is the vector every flow destined to ``t`` uses; this is
        the layout the batch engine consumes directly.
        """
        return self._per_destination


def validate_routing(
    routing: RoutingStrategy,
    source: int,
    target: int,
    tolerance: float = RATIO_TOLERANCE,
) -> None:
    """Check one flow's ratios against the paper's constraints.

    Verifies non-negativity, absorption at the destination, and that every
    vertex *reachable from the source through positive ratios* (except the
    destination) forwards exactly its incoming flow.  Raises
    :class:`RoutingValidationError` with a precise message on violation.
    """
    network = routing.network
    vector = routing.ratios(source, target)
    if np.any(vector < -tolerance):
        worst = int(np.argmin(vector))
        raise RoutingValidationError(
            f"flow ({source},{target}): negative ratio {vector[worst]:.3g} on edge "
            f"{network.edges[worst]}"
        )

    out_sums = np.zeros(network.num_nodes)
    for v in range(network.num_nodes):
        ids = list(network.out_edges[v])
        if ids:
            out_sums[v] = float(vector[ids].sum())

    if out_sums[target] > tolerance:
        raise RoutingValidationError(
            f"flow ({source},{target}): destination forwards {out_sums[target]:.3g} "
            "instead of absorbing"
        )

    # BFS through positive-ratio edges from the source.
    reachable = {source}
    frontier = [source]
    while frontier:
        v = frontier.pop()
        if v == target:
            continue
        for edge_id in network.out_edges[v]:
            if vector[edge_id] > tolerance:
                u = network.edges[edge_id][1]
                if u not in reachable:
                    reachable.add(u)
                    frontier.append(u)

    if target not in reachable:
        raise RoutingValidationError(
            f"flow ({source},{target}): destination unreachable through positive ratios"
        )
    for v in reachable:
        if v == target:
            continue
        if abs(out_sums[v] - 1.0) > tolerance:
            raise RoutingValidationError(
                f"flow ({source},{target}): vertex {v} forwards {out_sums[v]:.6f} of its "
                "incoming flow (must be 1)"
            )


def routing_from_function(
    network: Network,
    pairs: Iterable[tuple[int, int]],
    fn: Callable[[int, int], np.ndarray],
) -> FlowRouting:
    """Materialise ``fn(s, t)`` over ``pairs`` into a :class:`FlowRouting`."""
    return FlowRouting(network, {(s, t): fn(s, t) for s, t in pairs})
