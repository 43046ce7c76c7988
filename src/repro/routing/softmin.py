"""Softmin routing: from per-edge weights to splitting ratios (paper §VI).

Given agent-chosen edge weights ``w`` and a spread parameter ``γ``, the
translation works per flow ``(s, t)``:

1. convert the graph to a DAG for the flow (see :mod:`repro.routing.dag`);
2. compute every vertex's weighted distance ``d[v]`` to the sink within the
   DAG;
3. at each vertex, score each allowed outgoing edge ``e = (v, u)`` as
   ``w[e] + d[u]`` (edge length plus the neighbour's distance) and apply
   the softmin function (Equation 3) to obtain the splitting ratios.

With the default ``distance`` pruner the DAG — and therefore the ratios —
depends only on the destination, so the result is a
:class:`~repro.routing.strategy.DestinationRouting`.  By default the whole
table is produced by the vectorized batch engine
(:func:`repro.engine.batch_softmin_ratios`), which computes every
destination at once.  The
``frontier`` pruner (the paper's Figure 3) is per-(source, target); the
result is then a per-flow :class:`~repro.routing.strategy.FlowRouting`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

import numpy as np

from repro.engine.softmin_batch import batch_softmin_ratios
from repro.graphs.network import Network
from repro.routing.dag import prune_graph_frontier
from repro.routing.strategy import DestinationRouting, FlowRouting, RoutingStrategy

DEFAULT_GAMMA = 2.0


def softmin(values: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """The paper's Equation 3: ``softmin(x)_i = exp(-γ x_i) / Σ_j exp(-γ x_j)``.

    Numerically stabilised by shifting with the minimum before
    exponentiating; a larger ``γ`` concentrates mass on the smallest input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("softmin of an empty vector")
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    shifted = -gamma * (values - values.min())
    exps = np.exp(shifted)
    return exps / exps.sum()


def _masked_distances_to(
    network: Network, weights: np.ndarray, mask: np.ndarray, target: int
) -> np.ndarray:
    """Weighted distance to ``target`` using only edges allowed by ``mask``."""
    dist = np.full(network.num_nodes, np.inf)
    dist[target] = 0.0
    heap: list[tuple[float, int]] = [(0.0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for edge_id in network.in_edges[v]:
            if not mask[edge_id]:
                continue
            u = network.edges[edge_id][0]
            candidate = d + weights[edge_id]
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, u))
    return dist


def _ratios_for_mask(
    network: Network,
    weights: np.ndarray,
    mask: np.ndarray,
    target: int,
    gamma: float,
) -> np.ndarray:
    """Softmin splitting ratios for one destination over a pruned DAG."""
    distances = _masked_distances_to(network, weights, mask, target)
    ratios = np.zeros(network.num_edges)
    for v in range(network.num_nodes):
        if v == target or not np.isfinite(distances[v]):
            continue
        allowed = [
            e
            for e in network.out_edges[v]
            if mask[e] and np.isfinite(distances[network.edges[e][1]])
        ]
        if not allowed:
            continue
        scores = np.array(
            [weights[e] + distances[network.edges[e][1]] for e in allowed]
        )
        ratios[allowed] = softmin(scores, gamma)
    return ratios


def _validate_weights(network: Network, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (network.num_edges,):
        raise ValueError(
            f"weights has shape {weights.shape}, expected ({network.num_edges},)"
        )
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("routing needs strictly positive finite edge weights")
    return weights


def softmin_routing(
    network: Network,
    weights: np.ndarray,
    gamma: float = DEFAULT_GAMMA,
    pruner: str = "distance",
    pairs: Optional[Iterable[tuple[int, int]]] = None,
) -> RoutingStrategy:
    """Derive a full routing strategy from edge weights (paper Fig. 2).

    Parameters
    ----------
    network:
        The topology being routed over.
    weights:
        Strictly positive per-edge weights (the agent's action after the
        action-space mapping).
    gamma:
        Softmin spread γ; higher values approach deterministic shortest-path
        forwarding, lower values spread traffic across the DAG.
    pruner:
        ``"distance"`` (default, destination-based) or ``"frontier"`` (the
        paper's Figure 3 per-flow algorithm).
    pairs:
        For the ``frontier`` pruner, which (s, t) flows to materialise;
        defaults to every ordered pair.  Ignored by ``distance``.

    Returns
    -------
    A :class:`DestinationRouting` (``distance``) or :class:`FlowRouting`
    (``frontier``) obeying the §IV-A constraints for every flow.
    """
    weights = _validate_weights(network, weights)
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if pruner == "distance":
        return DestinationRouting(network, batch_softmin_ratios(network, weights, gamma))
    if pruner == "frontier":
        if pairs is None:
            pairs = [
                (s, t)
                for s in range(network.num_nodes)
                for t in range(network.num_nodes)
                if s != t
            ]
        table = {}
        for s, t in pairs:
            mask = prune_graph_frontier(network, weights, s, t)
            table[(s, t)] = _ratios_for_mask(network, weights, mask, t, gamma)
        return FlowRouting(network, table)
    raise ValueError(f"unknown pruner {pruner!r}; choose 'distance' or 'frontier'")
