"""Shared test utilities: gradient checking, tiny fixtures and loop oracles."""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.engine.simulator_batch import _NEGATIVE_FLOW_TOLERANCE, RoutingLoopError
from repro.flows.lp import (
    LP_OBJECTIVES,
    InfeasibleRoutingError,
    OptimalRouting,
    _validate_inputs,
    demand_destinations,
)
from repro.graphs.network import Network
from repro.routing.dag import prune_by_distance
from repro.routing.softmin import DEFAULT_GAMMA, _ratios_for_mask, _validate_weights
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.tensor import Tensor
from repro.utils.validation import check_square_matrix


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


# ---------------------------------------------------------------------------
# Engine oracles: the per-destination softmin and simulation loops the batch
# engine (``repro.engine``) replaced.  The microbenchmark gate normalises
# every median by ``test_scalar_reference_evaluation``, which times these.
# ---------------------------------------------------------------------------


def reference_softmin_routing(
    network: Network, weights: np.ndarray, gamma: float = DEFAULT_GAMMA
) -> DestinationRouting:
    """Softmin routing with the ``distance`` pruner, one heap Dijkstra per target."""
    weights = _validate_weights(network, weights)
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        mask = prune_by_distance(network, weights, t)
        table[t] = _ratios_for_mask(network, weights, mask, t, gamma)
    return DestinationRouting(network, table)


def _forwarding_matrix(network: Network, ratios: np.ndarray, target: int) -> np.ndarray:
    """Dense ``P`` with ``P[u, v] = Σ ratios of edges u→v``; row ``target`` zero."""
    p = np.zeros((network.num_nodes, network.num_nodes))
    for edge_id, (u, v) in enumerate(network.edges):
        if ratios[edge_id] != 0.0:
            p[u, v] += ratios[edge_id]
    p[target, :] = 0.0
    return p


def _solve_throughflow(
    network: Network, ratios: np.ndarray, injections: np.ndarray, target: int
) -> np.ndarray:
    """Solve ``(I - Pᵀ) x = b`` for the node throughflow ``x`` (scalar path)."""
    p = _forwarding_matrix(network, ratios, target)
    system = np.eye(network.num_nodes) - p.T
    try:
        x = np.linalg.solve(system, injections)
    except np.linalg.LinAlgError as error:
        raise RoutingLoopError(
            f"routing to destination {target} traps flow in a loop: {error}"
        ) from None
    if np.any(x < -_NEGATIVE_FLOW_TOLERANCE * max(1.0, float(np.abs(injections).sum()))):
        raise RoutingLoopError(
            f"routing to destination {target} yields negative throughflow; "
            "the splitting ratios are inconsistent"
        )
    return np.maximum(x, 0.0)


def _link_loads_scalar(
    network: Network, routing: RoutingStrategy, demand: np.ndarray
) -> np.ndarray:
    """The original per-destination / per-flow solve loop."""
    loads = np.zeros(network.num_edges)
    senders = network.senders
    if isinstance(routing, DestinationRouting) or routing.destination_based:
        for t in range(network.num_nodes):
            injections = demand[:, t].copy()
            injections[t] = 0.0
            if injections.sum() <= 0.0:
                continue
            ratios = routing.ratios(int(np.argmax(injections)), t)
            x = _solve_throughflow(network, ratios, injections, t)
            loads += x[senders] * ratios
    else:
        for s in range(network.num_nodes):
            for t in range(network.num_nodes):
                d = demand[s, t]
                if s == t or d <= 0.0:
                    continue
                ratios = routing.ratios(s, t)
                injections = np.zeros(network.num_nodes)
                injections[s] = d
                x = _solve_throughflow(network, ratios, injections, t)
                loads += x[senders] * ratios
    return loads


def reference_link_loads(
    network: Network, routing: RoutingStrategy, demand_matrix: np.ndarray
) -> np.ndarray:
    """Per-edge loads from one dense ``np.linalg.solve`` per destination or flow."""
    demand = check_square_matrix("demand_matrix", demand_matrix)
    if demand.shape[0] != network.num_nodes:
        raise ValueError(
            f"demand matrix size {demand.shape[0]} does not match network "
            f"({network.num_nodes} nodes)"
        )
    return _link_loads_scalar(network, routing, demand)


# ---------------------------------------------------------------------------
# LP oracles: the per-commodity loop assembly and fresh-``linprog`` pipeline
# that ``repro.flows.lp.LinearProgramStructure`` replaced.
# ---------------------------------------------------------------------------


def reference_lp_assemble(network: Network, destinations, objective: str = "max"):
    """Reference loop assembly (the pre-structure-cache implementation).

    Returns ``(a_eq, a_ub, cost)`` exactly as the original per-commodity
    ``lil_matrix`` + ``sparse.hstack`` code built them (``a_ub`` is ``None``
    for the average objective).  The vectorized assembly is property-tested
    against it, and it is the legacy side of the LP-phase benchmark.
    """
    if objective not in LP_OBJECTIVES:
        raise ValueError(f"objective must be one of {LP_OBJECTIVES}, got {objective!r}")
    n, m = network.num_nodes, network.num_edges
    destinations = [int(t) for t in destinations]
    k = len(destinations)
    has_u = objective == "max"
    num_vars = k * m + (1 if has_u else 0)
    u_index = k * m

    incidence = sparse.lil_matrix((n, m))
    for e, (u, v) in enumerate(network.edges):
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
    incidence = incidence.tocsr()

    eq_rows = []
    for ci, t in enumerate(destinations):
        keep = np.array([v for v in range(n) if v != t])
        block = incidence[keep]
        padded = sparse.hstack(
            [
                sparse.csr_matrix((n - 1, ci * m)),
                block,
                sparse.csr_matrix((n - 1, (k - ci - 1) * m + (1 if has_u else 0))),
            ]
        )
        eq_rows.append(padded)
    a_eq = sparse.vstack(eq_rows).tocsr()

    if has_u:
        ub = sparse.lil_matrix((m, num_vars))
        for e in range(m):
            for ci in range(k):
                ub[e, ci * m + e] = 1.0
            ub[e, u_index] = -float(network.capacities[e])
        a_ub = ub.tocsr()
        cost = np.zeros(num_vars)
        cost[u_index] = 1.0
    else:
        a_ub = None
        cost = np.tile(1.0 / (m * network.capacities), k)
    return a_eq, a_ub, cost


def reference_lp_solve(network: Network, demand_matrix: np.ndarray) -> OptimalRouting:
    """The pre-structure-cache pipeline: loop assembly + fresh ``linprog``.

    Solves the identical destination-aggregated LP with no structure or
    model reuse: an independent oracle for the re-solve equivalence tests
    and the legacy side of the LP-phase benchmark.
    """
    demand = _validate_inputs(network, demand_matrix)
    m = network.num_edges
    destinations = [int(t) for t in demand_destinations(demand)]
    if not destinations:
        return OptimalRouting(0.0, np.zeros(m), np.zeros((0, m)))
    k = len(destinations)
    u_index = k * m
    a_eq, a_ub, cost = reference_lp_assemble(network, destinations, "max")
    keep = [np.array([v for v in range(network.num_nodes) if v != t]) for t in destinations]
    b_eq = np.concatenate([demand[rows, t] for rows, t in zip(keep, destinations)])
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise InfeasibleRoutingError(
            f"optimal-routing LP failed on {network!r}: {result.message}"
        )
    solution = result.x
    commodity_flows = solution[: k * m].reshape(k, m)
    return OptimalRouting(
        float(solution[u_index]), commodity_flows.sum(axis=0), commodity_flows
    )
