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
:class:`~repro.routing.strategy.DestinationRouting` built by
:func:`repro.engine.batch_softmin_ratios`.  The ``frontier`` pruner (the
paper's Figure 3) is per-(source, target): each flow's in-DAG distances come
from the shared kernel with pruned edges weighted ``inf``, the stacked flows
share one segment softmin, and the result is a per-flow
:class:`~repro.routing.strategy.FlowRouting`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.engine.softmin_batch import batch_softmin_ratios, masked_softmin_ratios
from repro.graphs.kernels import batch_distances_to_targets
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
        n = network.num_nodes
        if pairs is None:
            pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        pairs = list(pairs)
        masks = np.zeros((len(pairs), network.num_edges), dtype=bool)
        distances = np.zeros((len(pairs), n))
        for row, (s, t) in enumerate(pairs):
            masks[row] = prune_graph_frontier(network, weights, s, t)
            in_dag = np.where(masks[row], weights, np.inf)
            distances[row] = batch_distances_to_targets(network, in_dag, targets=[t])[0]
        head = distances[:, network.receivers]
        ratios = masked_softmin_ratios(network, weights + head, masks & np.isfinite(head), gamma)
        return FlowRouting(network, dict(zip(pairs, ratios)))
    raise ValueError(f"unknown pruner {pruner!r}; choose 'distance' or 'frontier'")
