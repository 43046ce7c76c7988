"""Propagating a routing strategy's splitting ratios to link loads.

This is the measurement half of the environment (paper Fig. 1): given the
network, a routing strategy and a demand matrix, compute each link's load
and the resulting maximum link utilisation ``U_max``.

For each commodity the node *throughflow* ``x`` satisfies the balance
equation ``x = b + Pᵀ x`` where ``b`` is the injection vector and
``P[u, v]`` the fraction of flow at ``u`` forwarded to ``v`` (zero out of
the destination, which absorbs).  We solve the linear system directly, so
routings **with** loops are also simulated faithfully — recirculating
traffic consumes capacity on every lap, exactly the wasted-capacity effect
the paper's DAG conversion exists to avoid (§VI).  A routing whose loops
trap flow forever (no leakage to the destination) has a singular system and
raises :class:`RoutingLoopError`.

The linear systems are stacked and solved in one batched call by
:mod:`repro.engine.simulator_batch` — all destinations (or all flows) at
once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.simulator_batch import (
    RoutingLoopError,
    destination_link_loads,
    flow_link_loads,
)
from repro.graphs.network import Network
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.utils.validation import check_demand_matrix

__all__ = [
    "RoutingLoopError",
    "checked_ratio_to_optimum",
    "link_loads",
    "max_link_utilisation",
    "ratio_to_optimum",
]


def link_loads(
    network: Network,
    routing: RoutingStrategy,
    demand_matrix: np.ndarray,
) -> np.ndarray:
    """Total flow per edge when ``routing`` carries ``demand_matrix``.

    Returns an array aligned with ``network.edges``.  Destination-based
    routings are simulated with one batched solve over all active
    destinations and per-flow routings with one batched solve over all
    positive-demand flows, on the calling thread's bound balance-system
    backend (:func:`repro.engine.backend.default_backend`).  An all-zero
    demand matrix loads no link, so it returns zeros without simulating.
    """
    demand = check_demand_matrix(demand_matrix, network.num_nodes)
    if not np.any(demand > 0.0):
        return np.zeros(network.num_edges)
    if isinstance(routing, DestinationRouting):
        return destination_link_loads(network, routing.destination_table(), demand)
    flows = [
        (s, t, float(demand[s, t]), routing.ratios(s, t))
        for s in range(network.num_nodes)
        for t in range(network.num_nodes)
        if s != t and demand[s, t] > 0.0
    ]
    return flow_link_loads(network, flows)


def max_link_utilisation(
    network: Network,
    routing: RoutingStrategy,
    demand_matrix: np.ndarray,
) -> float:
    """The achieved ``U_max``: max over links of load / capacity.

    :func:`link_loads` validates the demand matrix, and an all-zero one
    gives 0.0 without simulating.
    """
    loads = link_loads(network, routing, demand_matrix)
    return float((loads / network.capacities).max())


def ratio_to_optimum(
    network: Network,
    achieved: float,
    demand_matrix: np.ndarray,
    optimum: Callable[[], float],
) -> tuple[float, float]:
    """``(U_agent / U_optimal, U_optimal)`` for an already-measured ``U_max``.

    The demand matrix is validated against ``network`` first, so a
    wrong-shape matrix raises whatever its values; then
    :func:`checked_ratio_to_optimum` applies the rule.
    """
    demand = check_demand_matrix(demand_matrix, network.num_nodes)
    return checked_ratio_to_optimum(achieved, demand, optimum)


def checked_ratio_to_optimum(
    achieved: float, demand: np.ndarray, optimum: Callable[[], float]
) -> tuple[float, float]:
    """:func:`ratio_to_optimum` for a demand matrix its caller has validated.

    The one home of the ratio rule.  An all-zero demand matrix has the
    defined result ``(1.0, 0.0)`` — zero load on every link is trivially
    optimal — without calling ``optimum``, so sparse traffic sequences
    evaluate without aborting mid-batch.  A non-positive optimum under
    positive demand is inconsistent and raises ``ValueError``.
    """
    if not np.any(demand > 0.0):
        return 1.0, 0.0
    optimal = optimum()
    if optimal <= 0.0:
        raise ValueError("utilisation ratio undefined for zero optimal utilisation")
    return float(achieved) / optimal, optimal
