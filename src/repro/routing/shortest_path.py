"""Classical shortest-path routing baselines.

The paper compares every learned policy against "shortest-path routing … a
simple classical method" (§VIII-A, the dotted lines in Figures 6 and 8):

* :func:`shortest_path_routing` — single next hop per (vertex, destination),
  like plain OSPF/RIP with unique path selection (lowest edge id wins ties);
* :func:`ecmp_routing` — equal-cost multi-path: flow splits evenly across
  all next hops on shortest paths, like OSPF with ECMP enabled.

Weights default to unit (hop count) and may be any strictly positive, finite
per-edge vector (e.g. inverse capacity).  Both tables are one array program
over a single multi-source Dijkstra, ``D[t, v] = dist(v, t)``: out-edge
``e = (v, u)`` is a next hop of ``v`` towards ``t`` iff it is *tight*,

    D[t, v], D[t, u] finite,  v != t,  |w[e] + D[t, u] - D[t, v]| <= 1e-9 * max(1, D[t, v]),

evaluated as one ``(targets × edges)`` mask.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.kernels import batch_distances_to_targets
from repro.graphs.network import Network
from repro.routing.softmin import _validate_weights
from repro.routing.strategy import DestinationRouting

_TIE_TOLERANCE = 1e-9


def _tight_edges(network: Network, weights: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(target, edge)`` index pairs of every next hop on a shortest path.

    Row-major order: targets ascending, edge ids ascending within a target.
    """
    weights = np.ones(network.num_edges) if weights is None else _validate_weights(network, weights)
    distances = batch_distances_to_targets(network, weights)
    tail = distances[:, network.senders]
    head = distances[:, network.receivers]
    with np.errstate(invalid="ignore"):  # inf - inf where neither end reaches t
        tight = np.abs(weights + head - tail) <= _TIE_TOLERANCE * np.maximum(1.0, tail)
    tight &= np.isfinite(tail) & np.isfinite(head)
    tight &= network.senders != np.arange(network.num_nodes)[:, np.newaxis]
    return np.nonzero(tight)


def shortest_path_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Single-path shortest-path routing (lowest edge id breaks ties)."""
    targets, edges = _tight_edges(network, weights)
    n, m = network.num_nodes, network.num_edges
    first = np.full((n, n), m)
    np.minimum.at(first, (targets, network.senders[edges]), edges)
    rows, tails = np.nonzero(first < m)
    table = np.zeros((n, m))
    table[rows, first[rows, tails]] = 1.0
    return DestinationRouting(network, table)


def ecmp_routing(
    network: Network, weights: Optional[np.ndarray] = None
) -> DestinationRouting:
    """Equal-cost multi-path: even split over all shortest next hops."""
    targets, edges = _tight_edges(network, weights)
    n = network.num_nodes
    tails = network.senders[edges]
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (targets, tails), 1)
    table = np.zeros((n, network.num_edges))
    table[targets, edges] = 1.0 / counts[targets, tails]
    return DestinationRouting(network, table)


def inverse_capacity_weights(network: Network) -> np.ndarray:
    """OSPF's recommended metric: weight inversely proportional to capacity."""
    reference = float(network.capacities.max())
    return reference / network.capacities
