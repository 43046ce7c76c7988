"""Vectorized softmin translation: every row of a routing table in one program.

All destinations at once, from the :mod:`repro.graphs.kernels` pipeline:

1. the ``(n, n)`` distances ``D[t, v] = dist(v, t)`` from one multi-source
   Dijkstra;
2. the strictly-decreasing-distance DAG masks as one ``(n, e)`` array
   (:func:`~repro.graphs.kernels.decreasing_distance_mask`, the one home
   of the ``distance`` pruner's rule);
3. the per-vertex softmin over out-edge scores ``w[e] + D[t, head(e)]``
   (:func:`masked_softmin_ratios`, which the per-flow ``frontier`` pruner
   reuses over stacked (source, target) rows).

The per-destination Python loops this replaced are the oracles in
``tests/helpers.py``; ``tests/test_engine.py`` pins the two to 1e-8.
:func:`stacked_softmin_ratios` runs the same program for many routings of
one topology at once (a planned rollout's block), bit-identical to one
call per routing.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.kernels import (
    batch_distances_to_targets,
    decreasing_distance_mask,
    edge_segments,
    normalise_segments,
    stacked_distances_to_targets,
)
from repro.graphs.network import Network
from repro.utils.validation import check_gamma


def masked_softmin_ratios(
    network: Network, scores: np.ndarray, keep: np.ndarray, gamma
) -> np.ndarray:
    """Per-(row, vertex) softmin (paper Equation 3) over the kept out-edges.

    ``scores`` and ``keep`` are ``(rows, num_edges)``; kept scores must be
    finite.  ``gamma`` is one spread for every row, or a ``(rows, 1)``
    column of per-row spreads.  Vertices with no kept out-edge get all-zero
    ratios.
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
    gamma = check_gamma(gamma)
    weights = np.asarray(weights, dtype=np.float64)
    distances = batch_distances_to_targets(network, weights)
    keep = decreasing_distance_mask(network, distances)
    # (n, e); inf where the head vertex cannot reach the destination.
    scores = weights[np.newaxis, :] + distances[:, network.receivers]
    return masked_softmin_ratios(network, scores, keep, gamma)


def stacked_softmin_ratios(
    network: Network, weights: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """:func:`batch_softmin_ratios` for ``T`` routings of one topology at once.

    ``weights`` is ``(T, num_edges)`` and ``gammas`` ``(T,)``, both
    validated by the caller; the result is ``(T, num_nodes, num_edges)``,
    bit-identical to ``T`` separate calls.  The distances come from one
    block-diagonal Dijkstra, and the ``T × num_nodes`` rows share one
    segment softmin with a per-row γ.
    """
    weights = np.asarray(weights, dtype=np.float64)
    steps, n = len(weights), network.num_nodes
    distances = stacked_distances_to_targets(network, weights).reshape(steps * n, n)
    keep = decreasing_distance_mask(network, distances)
    scores = np.repeat(weights, n, axis=0) + distances[:, network.receivers]
    row_gammas = np.repeat(np.asarray(gammas, dtype=np.float64), n)[:, np.newaxis]
    ratios = masked_softmin_ratios(network, scores, keep, row_gammas)
    return ratios.reshape(steps, n, network.num_edges)
