"""Shared test utilities: gradient checking, tiny fixtures and loop oracles."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.network import Network
from repro.tensor import Tensor


def numerical_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        f_plus = fn(x)
        flat[i] = original - epsilon
        f_minus = fn(x)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
    return grad


def check_gradient(
    build: Callable[[Tensor], Tensor],
    x: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Assert analytic and numerical gradients of ``build(x).sum()`` agree.

    ``build`` maps a Tensor to a Tensor; the scalar objective is the sum of
    its elements.
    """
    x = np.asarray(x, dtype=np.float64)

    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor).sum()
    out.backward()
    analytic = tensor.grad

    def objective(arr: np.ndarray) -> float:
        return float(build(Tensor(arr)).sum().numpy())

    numeric = numerical_gradient(objective, x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def triangle_network(capacity: float = 10.0) -> Network:
    """Bidirected 3-cycle: the smallest network with path diversity."""
    return Network.from_undirected(3, [(0, 1), (1, 2), (0, 2)], capacity, name="triangle")


def square_network(capacity: float = 10.0) -> Network:
    """Bidirected 4-cycle plus one diagonal — two distinct path lengths."""
    return Network.from_undirected(
        4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], capacity, name="square"
    )


def line_network(num_nodes: int = 4, capacity: float = 10.0) -> Network:
    """A bidirected path graph — unique routes, good for exact assertions."""
    links = [(i, i + 1) for i in range(num_nodes - 1)]
    return Network.from_undirected(num_nodes, links, capacity, name=f"line-{num_nodes}")


# ---------------------------------------------------------------------------
# Loop oracles: the per-vertex Python implementations the array kernels in
# ``repro.routing.shortest_path`` and ``repro.graphs.modifications`` replaced.
# ---------------------------------------------------------------------------

_TIE_TOLERANCE = 1e-9


def _next_hop_edges(network: Network, distances: np.ndarray, weights: np.ndarray, v: int):
    """Edge ids out of ``v`` lying on some shortest path to the target."""
    hops = []
    for edge_id in network.out_edges[v]:
        u = network.edges[edge_id][1]
        if np.isfinite(distances[u]) and abs(
            weights[edge_id] + distances[u] - distances[v]
        ) <= _TIE_TOLERANCE * max(1.0, distances[v]):
            hops.append(edge_id)
    return hops


def _reference_table(network: Network, weights, spread) -> np.ndarray:
    weights = np.ones(network.num_edges) if weights is None else np.asarray(weights, float)
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        distances = network.shortest_path_distances(weights, target=t)
        for v in range(network.num_nodes):
            if v == t or not np.isfinite(distances[v]):
                continue
            chosen = spread(_next_hop_edges(network, distances, weights, v))
            for edge_id in chosen:
                table[t, edge_id] = 1.0 / len(chosen)
    return table


def reference_shortest_path_table(network: Network, weights=None) -> np.ndarray:
    """Single-path table, one heap Dijkstra per target, lowest edge id wins."""
    return _reference_table(network, weights, lambda hops: hops[:1])


def reference_ecmp_table(network: Network, weights=None) -> np.ndarray:
    """ECMP table, one heap Dijkstra per target, even split over ties."""
    return _reference_table(network, weights, lambda hops: hops)


def reference_removable_links(network: Network) -> list:
    """Links whose deletion keeps the graph connected, one networkx rebuild each."""
    import networkx as nx

    def connected(links) -> bool:
        graph = nx.Graph()
        graph.add_nodes_from(range(network.num_nodes))
        graph.add_edges_from(links)
        return nx.is_connected(graph)

    links = {tuple(sorted(edge)) for edge in network.edges}
    return [link for link in links if connected(links - {link})]
