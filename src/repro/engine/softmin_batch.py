"""Vectorized softmin translation: all destinations in one array program.

The scalar pipeline in :mod:`repro.routing.softmin` runs one Dijkstra per
destination and then loops over every vertex and out-edge in Python.  This
module computes the same destination-based splitting-ratio table as a batch:

1. all weighted distance-to-target vectors at once, as the ``(n, n)`` matrix
   ``D[t, v] = dist(v, t)`` from one multi-source Dijkstra
   (:func:`repro.graphs.kernels.batch_distances_to_targets`);
2. the strictly-decreasing-distance DAG masks for every destination as one
   ``(n, e)`` boolean array (:func:`batch_prune_by_distance`);
3. the per-vertex softmin over out-edge scores ``w[e] + D[t, head(e)]`` via
   segment reductions (``np.minimum.reduceat`` / ``np.add.reduceat``) over
   edges grouped by tail vertex, for all destinations simultaneously.

The result is numerically equivalent to the scalar implementation (the
per-path distance sums and per-vertex softmax normalisations associate in
the same order), which the equivalence tests in ``tests/test_engine.py``
assert to 1e-8.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.kernels import batch_distances_to_targets, edge_segments
from repro.graphs.network import Network


def _keep_mask(network: Network, distances: np.ndarray) -> np.ndarray:
    """The strictly-decreasing-distance rule over precomputed distances."""
    tail = distances[:, network.senders]
    head = distances[:, network.receivers]
    return np.isfinite(tail) & np.isfinite(head) & (tail > head)


def batch_prune_by_distance(network: Network, weights: np.ndarray) -> np.ndarray:
    """Strictly-decreasing-distance DAG masks for every destination.

    Row ``t`` equals :func:`repro.routing.dag.prune_by_distance` for target
    ``t``: keep edge ``(u, v)`` iff both endpoints reach ``t`` and
    ``dist(u, t) > dist(v, t)``.  Shape ``(num_nodes, num_edges)``.
    """
    return _keep_mask(network, batch_distances_to_targets(network, weights))


def batch_softmin_ratios(
    network: Network, weights: np.ndarray, gamma: float
) -> np.ndarray:
    """Softmin splitting-ratio table for **all** destinations at once.

    Returns the ``(num_nodes, num_edges)`` array whose row ``t`` matches the
    scalar per-destination translation (distance pruner): at each vertex the
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

    keep = _keep_mask(network, distances)
    # (n, e); inf where the head vertex cannot reach the destination.
    scores = weights[np.newaxis, :] + distances[:, network.receivers]

    order, starts, seg_of_pos = edge_segments(network)
    scores_sorted = np.where(keep[:, order], scores[:, order], np.inf)

    # Per-(destination, vertex) softmin, numerically stabilised by the
    # segment minimum exactly like the scalar `softmin` helper.
    seg_min = np.minimum.reduceat(scores_sorted, starts, axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        exps = np.exp(-gamma * (scores_sorted - seg_min[:, seg_of_pos]))
    exps[~np.isfinite(exps)] = 0.0  # pruned edges of empty/partial segments

    seg_sum = np.add.reduceat(exps, starts, axis=1)
    denom = seg_sum[:, seg_of_pos]
    ratios_sorted = np.divide(exps, denom, out=np.zeros_like(exps), where=denom > 0.0)

    ratios = np.zeros_like(ratios_sorted)
    ratios[:, order] = ratios_sorted
    return ratios
