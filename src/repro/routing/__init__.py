"""Routing strategies and the softmin routing translation.

A routing strategy (paper §IV-A) specifies, for every flow ``(s, t)`` and
every vertex ``v``, how the flow arriving at ``v`` splits across ``v``'s
outgoing edges.  This package provides:

* :mod:`~repro.routing.strategy` — the strategy interface and validation;
* :mod:`~repro.routing.shortest_path` — classical shortest-path / ECMP
  baselines (the dotted line in the paper's Figures 6 and 8);
* :mod:`~repro.routing.dag` — loop-breaking DAG conversions (paper Fig. 3);
* :mod:`~repro.routing.softmin` — the (modified) softmin translation from
  agent edge weights to splitting ratios (paper Fig. 2, Equation 3);
* :mod:`~repro.routing.oblivious` — an LP-derived demand-oblivious baseline
  (related-work comparison, §X-A).
"""

from repro.routing.strategy import (
    DestinationRouting,
    FlowRouting,
    RoutingStrategy,
    RoutingValidationError,
    validate_routing,
)
from repro.routing.shortest_path import ecmp_routing, shortest_path_routing
from repro.routing.softmin import softmin, softmin_routing
from repro.routing.dag import prune_graph_frontier
from repro.routing.oblivious import lp_derived_routing, oblivious_routing
from repro.routing.proportional import capacity_proportional_routing, inverse_weight_routing

__all__ = [
    "RoutingStrategy",
    "FlowRouting",
    "DestinationRouting",
    "RoutingValidationError",
    "validate_routing",
    "shortest_path_routing",
    "ecmp_routing",
    "softmin",
    "softmin_routing",
    "prune_graph_frontier",
    "lp_derived_routing",
    "oblivious_routing",
    "inverse_weight_routing",
    "capacity_proportional_routing",
]
