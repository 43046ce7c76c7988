"""Demand-oblivious baseline routing derived from a reference LP solve.

Oblivious routing schemes (paper §X-A) pick one routing that performs well
under *any* demand.  As a practical stand-in for Räcke-style oblivious
routing we solve the optimal-routing LP for a *reference* demand matrix
(uniform all-pairs demand by default) and convert the resulting
per-destination edge flows into splitting ratios.  Applied back to the
reference demand this reproduces the LP optimum exactly; applied to other
demands it behaves like a static load-balanced routing — the right baseline
flavour for the paper's comparison.

Flow cycles (which LP degeneracy can produce) are cancelled before ratio
extraction so the derived routing is always loop-free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.flows.lp import solve_optimal_max_utilisation
from repro.graphs.kernels import normalise_out_edges
from repro.graphs.network import Network
from repro.routing.shortest_path import ecmp_routing
from repro.routing.strategy import DestinationRouting

_FLOW_TOLERANCE = 1e-9


def cancel_flow_cycles(network: Network, flows: np.ndarray) -> np.ndarray:
    """Remove circulation from a per-edge flow vector.

    Repeatedly finds a directed cycle in the positive-flow subgraph and
    subtracts the cycle's bottleneck flow.  Node balances (and therefore
    the routed demand) are unchanged; only wasted circulation disappears.
    """
    flows = np.asarray(flows, dtype=np.float64).copy()
    while True:
        cycle = _find_positive_cycle(network, flows)
        if cycle is None:
            return np.maximum(flows, 0.0)
        bottleneck = min(flows[e] for e in cycle)
        for e in cycle:
            flows[e] -= bottleneck
            if flows[e] < _FLOW_TOLERANCE:
                flows[e] = 0.0


def _find_positive_cycle(network: Network, flows: np.ndarray) -> Optional[list[int]]:
    """Return edge ids of one cycle in the positive-flow subgraph, if any."""
    colour = [0] * network.num_nodes  # 0 white, 1 grey, 2 black
    parent_edge: dict[int, int] = {}
    for root in range(network.num_nodes):
        if colour[root] != 0:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        colour[root] = 1
        path_edges: list[int] = []
        while stack:
            node, idx = stack[-1]
            out = [e for e in network.out_edges[node] if flows[e] > _FLOW_TOLERANCE]
            if idx < len(out):
                stack[-1] = (node, idx + 1)
                edge_id = out[idx]
                child = network.edges[edge_id][1]
                if colour[child] == 1:
                    # Found a back edge: the cycle is the DFS-path suffix
                    # starting where `child` was entered, plus this edge.
                    cycle_edges = []
                    for back_edge in reversed(path_edges):
                        cycle_edges.append(back_edge)
                        if network.edges[back_edge][0] == child:
                            break
                    cycle_edges.reverse()
                    cycle_edges.append(edge_id)
                    return cycle_edges
                if colour[child] == 0:
                    colour[child] = 1
                    stack.append((child, 0))
                    path_edges.append(edge_id)
            else:
                colour[node] = 2
                stack.pop()
                if path_edges:
                    path_edges.pop()
    return None


def lp_derived_routing(
    network: Network, reference_demand: np.ndarray
) -> DestinationRouting:
    """Destination-based routing extracted from the LP optimum for a demand.

    For each destination ``t`` the LP's flow ``f_t`` is cycle-cancelled and
    the stacked flows are normalised to ratios ``f_t(e) / Σ_out f_t`` at each
    vertex.  Vertices the LP routes no ``t``-bound flow through fall back to
    ECMP toward ``t`` so the routing stays total (delivery for any demand,
    not just the reference); ``t``'s own out-edges carry nothing.
    """
    solution = solve_optimal_max_utilisation(network, reference_demand)
    reference = np.asarray(reference_demand, dtype=np.float64)
    destinations = [t for t in range(network.num_nodes) if reference[:, t].sum() > 0.0]
    flows = np.zeros((network.num_nodes, network.num_edges))
    for t, commodity in zip(destinations, solution.commodity_flows):
        flows[t] = cancel_flow_cycles(network, commodity)
    ecmp = ecmp_routing(network).destination_table()
    table = normalise_out_edges(network, flows, fallback=ecmp, floor=_FLOW_TOLERANCE)
    table[network.senders == np.arange(network.num_nodes)[:, np.newaxis]] = 0.0
    return DestinationRouting(network, table)


def oblivious_routing(network: Network) -> DestinationRouting:
    """LP-based oblivious baseline: optimise for uniform all-pairs demand."""
    n = network.num_nodes
    uniform = np.ones((n, n)) - np.eye(n)
    return lp_derived_routing(network, uniform)
