"""Shared test utilities: gradient checking, tiny fixtures and loop/policy oracles."""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.engine.evaluate import EvaluationResult
from repro.engine.simulator_batch import _NEGATIVE_FLOW_TOLERANCE, RoutingLoopError
from repro.envs.factory import make_routing_env
from repro.flows.lp import (
    InfeasibleRoutingError,
    OptimalRouting,
    _validate_inputs,
    demand_destinations,
    solve_optimal_max_utilisation,
)
from repro.flows.simulator import max_link_utilisation
from repro.graphs.network import Network
from repro.routing.oblivious import _FLOW_TOLERANCE, cancel_flow_cycles
from repro.routing.shortest_path import ecmp_routing
from repro.routing.softmin import DEFAULT_GAMMA, _validate_weights, softmin, softmin_routing
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.tensor import Tensor, no_grad
from repro.utils.seeding import rng_from_seed
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
# Loop oracles: the heap Dijkstras and per-vertex Python loops the array
# kernels in ``repro.graphs.kernels`` (distances, the decreasing-distance keep
# mask, the per-vertex normaliser) and ``repro.graphs.modifications`` replaced.
# ---------------------------------------------------------------------------

_TIE_TOLERANCE = 1e-9


def reference_distances_to(network: Network, weights: np.ndarray, target: int) -> np.ndarray:
    """Dijkstra on the reversed graph from ``target``."""
    dist = np.full(network.num_nodes, np.inf)
    dist[target] = 0.0
    heap: list[tuple[float, int]] = [(0.0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for edge_id in network.in_edges[v]:
            u = network.edges[edge_id][0]
            candidate = d + weights[edge_id]
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, u))
    return dist


def reference_masked_distances_to(
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


def reference_prune_by_distance(network: Network, weights: np.ndarray, target: int) -> np.ndarray:
    """Strictly-decreasing-distance mask, one edge at a time over a heap Dijkstra."""
    weights = np.asarray(weights, dtype=np.float64)
    distances = reference_distances_to(network, weights, target)
    mask = np.zeros(network.num_edges, dtype=bool)
    for edge_id, (u, v) in enumerate(network.edges):
        if np.isfinite(distances[u]) and np.isfinite(distances[v]):
            mask[edge_id] = distances[u] > distances[v]
    return mask


def reference_ratios_for_mask(
    network: Network,
    weights: np.ndarray,
    mask: np.ndarray,
    target: int,
    gamma: float,
) -> np.ndarray:
    """Softmin splitting ratios for one destination over a pruned DAG."""
    distances = reference_masked_distances_to(network, weights, mask, target)
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


def reference_proportional_table(
    network: Network, weights: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Build a per-destination ratio table splitting ∝ ``scores`` on the DAG."""
    table = np.zeros((network.num_nodes, network.num_edges))
    for t in range(network.num_nodes):
        mask = reference_prune_by_distance(network, weights, t)
        distances = reference_masked_distances_to(network, weights, mask, t)
        for v in range(network.num_nodes):
            if v == t or not np.isfinite(distances[v]):
                continue
            allowed = [
                e
                for e in network.out_edges[v]
                if mask[e] and np.isfinite(distances[network.edges[e][1]])
            ]
            if not allowed:
                continue
            share = scores[allowed]
            total = share.sum()
            if total <= 0.0:
                share = np.ones(len(allowed))
                total = float(len(allowed))
            table[t, allowed] = share / total
    return table


def reference_lp_derived_table(network: Network, reference_demand: np.ndarray) -> np.ndarray:
    """LP-derived ratio table, one destination and vertex at a time (ECMP fallback)."""
    solution = solve_optimal_max_utilisation(network, reference_demand)
    ecmp = ecmp_routing(network)
    table = np.zeros((network.num_nodes, network.num_edges))

    reference = np.asarray(reference_demand, dtype=np.float64)
    destinations = [t for t in range(network.num_nodes) if reference[:, t].sum() > 0.0]
    flow_by_destination = dict(zip(destinations, solution.commodity_flows))

    for t in range(network.num_nodes):
        ecmp_row = ecmp.destination_ratios(t)
        flows = flow_by_destination.get(t)
        if flows is None:
            table[t] = ecmp_row
            continue
        flows = cancel_flow_cycles(network, flows)
        row = np.zeros(network.num_edges)
        for v in range(network.num_nodes):
            if v == t:
                continue
            out = list(network.out_edges[v])
            total = float(flows[out].sum()) if out else 0.0
            if total > _FLOW_TOLERANCE:
                row[out] = flows[out] / total
            else:
                row[out] = ecmp_row[out]
        table[t] = row
    return table


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
        distances = reference_distances_to(network, weights, t)
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
        mask = reference_prune_by_distance(network, weights, t)
        table[t] = reference_ratios_for_mask(network, weights, mask, t, gamma)
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
    if isinstance(routing, DestinationRouting):
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


def reference_sparse_balance_system(
    network: Network, row: np.ndarray, target: int
) -> sparse.csc_matrix:
    """One ``I - Pᵀ`` system as COO → CSC plus a sparse identity.

    The construction ``repro.engine.backend.sparse_balance_system``
    replaced; its ``indptr``/``indices``/``data`` must match this byte for
    byte (the sparse sum drops zero ratios and sorts row indices).
    """
    keep = network.senders != target
    system = sparse.csc_matrix(
        (-row[keep], (network.receivers[keep], network.senders[keep])),
        shape=(network.num_nodes, network.num_nodes),
    )
    return system + sparse.identity(network.num_nodes, format="csc")


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
# that ``repro.flows.lp.LinearProgramStructure`` replaced, and the paper's
# per-(source, destination) formulation.
# ---------------------------------------------------------------------------


def reference_lp_assemble(network: Network, destinations):
    """Reference loop assembly (the pre-structure-cache implementation).

    Returns ``(a_eq, a_ub, cost)`` exactly as the original per-commodity
    ``lil_matrix`` + ``sparse.hstack`` code built them.  The vectorized
    assembly is property-tested against it, and it is the legacy side of
    the LP-phase benchmark.
    """
    n, m = network.num_nodes, network.num_edges
    destinations = [int(t) for t in destinations]
    k = len(destinations)
    num_vars = k * m + 1
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
                sparse.csr_matrix((n - 1, (k - ci - 1) * m + 1)),
            ]
        )
        eq_rows.append(padded)
    a_eq = sparse.vstack(eq_rows).tocsr()

    ub = sparse.lil_matrix((m, num_vars))
    for e in range(m):
        for ci in range(k):
            ub[e, ci * m + e] = 1.0
        ub[e, u_index] = -float(network.capacities[e])
    cost = np.zeros(num_vars)
    cost[u_index] = 1.0
    return a_eq, ub.tocsr(), cost


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
    a_eq, a_ub, cost = reference_lp_assemble(network, destinations)
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


def reference_mcf_per_pair(network: Network, demand_matrix: np.ndarray) -> OptimalRouting:
    """Textbook per-(s, t) commodity MCF (paper §II-A).

    One commodity per non-zero demand entry; variables are the *fractions*
    ``f_i(e)`` of commodity ``i`` on edge ``e``, exactly as in the paper's
    constraint list, so capacity rows read
    ``sum_i f_i(e) * d_i <= U * c(e)``.  O(|V|²·|E|) variables, assembled
    with loops and solved by a fresh ``linprog``, so it checks the
    destination-aggregated fast path independently.
    """
    demand = _validate_inputs(network, demand_matrix)
    n, m = network.num_nodes, network.num_edges

    commodities = [
        (s, t, demand[s, t]) for s in range(n) for t in range(n) if demand[s, t] > 0.0
    ]
    if not commodities:
        return OptimalRouting(0.0, np.zeros(m), np.zeros((0, m)))

    k = len(commodities)
    num_vars = k * m + 1
    u_index = k * m

    incidence = sparse.lil_matrix((n, m))
    for e, (u, v) in enumerate(network.edges):
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
    incidence = incidence.tocsr()

    eq_rows, eq_rhs = [], []
    for ci, (s, t, _) in enumerate(commodities):
        keep = np.array([v for v in range(n) if v != t])
        block = incidence[keep]
        padded = sparse.hstack(
            [
                sparse.csr_matrix((n - 1, ci * m)),
                block,
                sparse.csr_matrix((n - 1, (k - ci - 1) * m + 1)),
            ]
        )
        eq_rows.append(padded)
        # Net outflow (in fraction units) is 1 at the source, 0 elsewhere.
        eq_rhs.append(np.array([1.0 if v == s else 0.0 for v in keep]))
    a_eq = sparse.vstack(eq_rows).tocsr()
    b_eq = np.concatenate(eq_rhs)

    ub = sparse.lil_matrix((m, num_vars))
    for e in range(m):
        for ci, (_, _, d) in enumerate(commodities):
            ub[e, ci * m + e] = d
        ub[e, u_index] = -float(network.capacities[e])

    cost = np.zeros(num_vars)
    cost[u_index] = 1.0

    result = linprog(
        cost,
        A_ub=ub.tocsr(),
        b_ub=np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise InfeasibleRoutingError(f"per-pair MCF LP failed on {network!r}: {result.message}")

    fractions = result.x[: k * m].reshape(k, m)
    demands = np.array([d for _, _, d in commodities])
    commodity_flows = fractions * demands[:, None]
    return OptimalRouting(float(result.x[u_index]), commodity_flows.sum(axis=0), commodity_flows)


# ---------------------------------------------------------------------------
# Policy oracle: the per-observation ``act`` every policy had before
# inference became ``act_batch`` over one shared ``_forward_batch``.
# ---------------------------------------------------------------------------


def _reference_mean_and_value(policy, observation) -> tuple[Tensor, Tensor]:
    """One observation's ``(mean, value)``.

    MLP-style policies (those with ``_flat``) run ``pi``/``vf`` on the 1-D
    input row — a vector-matrix product, not the stacked ``(1, d)`` one
    ``act_batch`` performs; GNN policies run ``_forward_batch([o])``.
    """
    if hasattr(policy, "_flat"):
        x = Tensor(policy._flat(observation))
        return policy.pi(x), policy.vf(x).sum()
    means_flat, values, _ = policy._forward_batch([observation])
    return means_flat, values.sum()


def reference_act(policy, observation, rng: np.random.Generator, deterministic: bool = False):
    """Sample an action for one observation (no gradients).

    Returns ``(action, log_prob, value)``.
    """
    with no_grad():
        mean_t, value_t = _reference_mean_and_value(policy, observation)
    mean = mean_t.numpy()
    value = float(value_t.numpy())
    if deterministic:
        action = mean.copy()
    else:
        action = policy.distribution.sample(mean, rng)
    log_prob = float(policy.distribution.log_prob_values([mean], [action])[0])
    return action, log_prob, value


# ---------------------------------------------------------------------------
# Evaluation oracle: the env-stepping rollout ``batch_evaluate`` ran before it
# scored every test step from batched forwards.
# ---------------------------------------------------------------------------


def reference_rollout_policy(
    policy,
    network: Network,
    sequences: list,
    *,
    iterative: bool,
    memory_length: int,
    softmin_gamma: float,
    weight_scale: float,
    rewarder,
    seed,
    timeline=None,
) -> EvaluationResult:
    """Deterministically roll the policy over every sequence once.

    Steps the real environment (round-robin sequence order, mean actions)
    with one ``act_batch([observation])`` per step.
    """
    env = make_routing_env(
        network,
        sequences,
        iterative=iterative,
        memory_length=memory_length,
        softmin_gamma=softmin_gamma,
        weight_scale=weight_scale,
        reward_computer=rewarder,
        seed=seed,
        sample_sequences=False,
        dynamics=timeline,
    )
    rng = rng_from_seed(seed)
    sub_steps = network.num_edges if iterative else 1  # per DM; the last is scored
    ratios: list[float] = []
    for _ in range(len(sequences)):
        observation = env.reset()
        done = False
        t = 0
        while not done:
            actions, _, _ = policy.act_batch([observation], rng, deterministic=True)
            observation, reward, done, _ = env.step(actions[0])
            t += 1
            if t % sub_steps == 0:
                ratios.append(-reward)
    return EvaluationResult(tuple(ratios))


# ---------------------------------------------------------------------------
# Reward oracle: Equation 2 for one step, as the environments scored each
# step before ``RewardComputer.block_ratios`` scored them a block at a time.
# ---------------------------------------------------------------------------


def reference_reward(
    rewarder, network: Network, weights: np.ndarray, gamma: float, demand_matrix: np.ndarray
) -> float:
    """``-U_agent / U_optimal`` of one ``(network, weights, gamma, demand)`` step.

    The single-DM softmin translation and simulation, over ``rewarder``'s
    cached LP optimum; ``block_ratios`` must match it bit for bit.
    """
    routing = softmin_routing(network, weights, gamma=gamma)
    achieved = max_link_utilisation(network, routing, demand_matrix)
    return -rewarder.ratio_from_achieved(network, achieved, demand_matrix)[0]
