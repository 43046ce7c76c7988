"""Alternative weight-to-routing translations (paper §IX-A further work).

The paper suggests "an exploration of different techniques in mapping edge
weights … to a routing strategy could provide interesting results".  This
module provides two alternatives to softmin, both defined over the same
loop-free strictly-decreasing-distance DAG:

* :func:`inverse_weight_routing` — splitting ratios proportional to
  ``1 / w(e)`` among the DAG's outgoing edges (OSPF-style "cheaper link
  gets more" without the distance-to-sink term);
* :func:`capacity_proportional_routing` — ratios proportional to link
  capacity, i.e. a weight-free static multipath spread.

Both produce :class:`~repro.routing.strategy.DestinationRouting` objects
obeying the §IV-A constraints, so they slot into the same simulator,
evaluation and ablation harness as softmin routing.  Each table is the
kernel keep mask times the scores, normalised per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.kernels import (
    batch_distances_to_targets,
    decreasing_distance_mask,
    normalise_out_edges,
)
from repro.graphs.network import Network
from repro.routing.softmin import _validate_weights
from repro.routing.strategy import DestinationRouting


def _proportional_table(
    network: Network, weights: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Per-destination ratios splitting ∝ positive ``scores`` on each DAG."""
    keep = decreasing_distance_mask(network, batch_distances_to_targets(network, weights))
    return normalise_out_edges(network, keep * scores)


def inverse_weight_routing(network: Network, weights: np.ndarray) -> DestinationRouting:
    """Split ∝ 1/weight across the decreasing-distance DAG's out-edges."""
    weights = _validate_weights(network, weights)
    return DestinationRouting(network, _proportional_table(network, weights, 1.0 / weights))


def capacity_proportional_routing(network: Network) -> DestinationRouting:
    """Split ∝ link capacity across the hop-count DAG's out-edges."""
    weights = np.ones(network.num_edges)
    return DestinationRouting(
        network, _proportional_table(network, weights, network.capacities.copy())
    )
