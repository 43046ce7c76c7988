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

from typing import Optional

import numpy as np

from repro.engine.simulator_batch import (
    RoutingLoopError,
    destination_link_loads,
    flow_link_loads,
)
from repro.graphs.network import Network
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.utils.validation import check_square_matrix

__all__ = [
    "RoutingLoopError",
    "link_loads",
    "max_link_utilisation",
    "utilisation_ratio",
]


def _checked_demand(network: Network, demand_matrix: np.ndarray) -> np.ndarray:
    demand = check_square_matrix("demand_matrix", demand_matrix)
    if demand.shape[0] != network.num_nodes:
        raise ValueError(
            f"demand matrix size {demand.shape[0]} does not match network "
            f"({network.num_nodes} nodes)"
        )
    return demand


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
    backend (:func:`repro.engine.backend.default_backend`).
    """
    demand = _checked_demand(network, demand_matrix)
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

    An all-zero demand matrix loads no link, so it returns 0.0 without
    simulating.
    """
    demand = _checked_demand(network, demand_matrix)
    if not np.any(demand > 0.0):
        return 0.0
    loads = link_loads(network, routing, demand)
    return float((loads / network.capacities).max())


def utilisation_ratio(
    network: Network,
    routing: RoutingStrategy,
    demand_matrix: np.ndarray,
    optimal_utilisation: Optional[float] = None,
) -> float:
    """``U_agent / U_optimal`` — the paper's headline metric (≥ 1, lower is better).

    Computes the LP optimum on the fly when ``optimal_utilisation`` is not
    supplied.  An all-zero demand matrix has the defined result 1.0 — zero
    load on every link is trivially optimal — so batch evaluation over
    sparse traffic sequences never aborts mid-batch.  A non-positive
    ``optimal_utilisation`` combined with positive demand is inconsistent
    and raises ``ValueError``.
    """
    if not np.any(np.asarray(demand_matrix) > 0.0):
        return 1.0
    if optimal_utilisation is None:
        from repro.flows.lp import solve_optimal_max_utilisation

        optimal_utilisation = solve_optimal_max_utilisation(
            network, demand_matrix
        ).max_utilisation
    if optimal_utilisation <= 0.0:
        raise ValueError("utilisation ratio undefined for zero optimal utilisation")
    achieved = max_link_utilisation(network, routing, demand_matrix)
    return achieved / optimal_utilisation
