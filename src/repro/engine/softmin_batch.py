"""Vectorized softmin translation: every row of a routing table in one program.

All destinations at once, from the :mod:`repro.graphs.kernels` pipeline:

1. the ``(n, n)`` distances ``D[t, v] = dist(v, t)`` from one multi-source
   Dijkstra;
2. the strictly-decreasing-distance DAG masks as one ``(n, e)`` array;
3. the per-vertex softmin over out-edge scores ``w[e] + D[t, head(e)]``
   (:func:`masked_softmin_ratios`, which the per-flow ``frontier`` pruner
   reuses over stacked (source, target) rows).

The per-destination Python loops this replaced are the oracles in
``tests/helpers.py``; ``tests/test_engine.py`` pins the two to 1e-8.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.kernels import (
    batch_distances_to_targets,
    decreasing_distance_mask,
    edge_segments,
    normalise_segments,
)
from repro.graphs.network import Network


def batch_prune_by_distance(network: Network, weights: np.ndarray) -> np.ndarray:
    """Strictly-decreasing-distance DAG masks for every destination.

    Row ``t`` equals :func:`repro.routing.dag.prune_by_distance` for target
    ``t``: keep edge ``(u, v)`` iff both endpoints reach ``t`` and
    ``dist(u, t) > dist(v, t)``.  Shape ``(num_nodes, num_edges)``.
    """
    return decreasing_distance_mask(network, batch_distances_to_targets(network, weights))


def masked_softmin_ratios(
    network: Network, scores: np.ndarray, keep: np.ndarray, gamma: float
) -> np.ndarray:
    """Per-(row, vertex) softmin (paper Equation 3) over the kept out-edges.

    ``scores`` and ``keep`` are ``(rows, num_edges)``; kept scores must be
    finite.  Vertices with no kept out-edge get all-zero ratios.
    """
    order, starts, seg_of_pos = edge_segments(network)
    scores_sorted = np.where(keep[:, order], scores[:, order], np.inf)

    # Stabilised by the segment minimum exactly like the scalar `softmin`.
    seg_min = np.minimum.reduceat(scores_sorted, starts, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        exps = np.exp(-gamma * (scores_sorted - seg_min[:, seg_of_pos]))
    exps[~np.isfinite(exps)] = 0.0  # pruned edges of empty/partial segments

    ratios_sorted, _ = normalise_segments(exps, starts, seg_of_pos)
    ratios = np.zeros_like(ratios_sorted)
    ratios[:, order] = ratios_sorted
    return ratios


def batch_softmin_ratios(
    network: Network, weights: np.ndarray, gamma: float
) -> np.ndarray:
    """Softmin splitting-ratio table for **all** destinations at once.

    Returns the ``(num_nodes, num_edges)`` array whose row ``t`` is the
    distance-pruner translation for destination ``t``: at each vertex the
    allowed out-edges ``e = (v, u)`` score ``w[e] + dist(u, t)`` and receive
    the softmin (paper Equation 3) of those scores.

    Parameters
    ----------
    network:
        Topology.
    weights:
        Strictly positive per-edge weights (validated by the caller,
        :func:`repro.routing.softmin.softmin_routing`).
    gamma:
        Non-negative softmin spread.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    weights = np.asarray(weights, dtype=np.float64)
    distances = batch_distances_to_targets(network, weights)
    keep = decreasing_distance_mask(network, distances)
    # (n, e); inf where the head vertex cannot reach the destination.
    scores = weights[np.newaxis, :] + distances[:, network.receivers]
    return masked_softmin_ratios(network, scores, keep, gamma)
