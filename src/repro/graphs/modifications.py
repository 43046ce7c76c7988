"""Random topology perturbations for the generalisation experiments.

Figure 8 trains/tests on "the same graph with small modifications … the
addition or deletion of one or two edges or nodes (chosen randomly)".  This
module implements exactly that operator, with the safety constraints an
evaluation needs: the result is always connected (so routing between every
pair remains feasible) and never degenerates below two nodes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graphs.kernels import bridges, is_connected, undirected_links
from repro.graphs.network import Network
from repro.utils.seeding import SeedLike, rng_from_seed

MODIFICATION_KINDS = ("add_edge", "remove_edge", "add_node", "remove_node")


def _rebuild(num_nodes: int, links: set[tuple[int, int]], network: Network, suffix: str) -> Network:
    capacity = float(network.capacities[0])
    return Network.from_undirected(
        num_nodes, sorted(links), capacity, name=f"{network.name}{suffix}"
    )


def add_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Add one absent undirected link, or ``None`` if the graph is complete."""
    links = undirected_links(network)
    candidates = [
        (u, v)
        for u in range(network.num_nodes)
        for v in range(u + 1, network.num_nodes)
        if (u, v) not in links
    ]
    if not candidates:
        return None
    links.add(candidates[int(rng.integers(0, len(candidates)))])
    return _rebuild(network.num_nodes, links, network, "+e")


def removable_links(network: Network) -> list[tuple[int, int]]:
    """The non-bridge links of a connected graph (none if disconnected).

    Listed in link-set iteration order, which the RNG in
    :func:`remove_random_edge` indexes into.
    """
    links = undirected_links(network)
    if not is_connected(network.num_nodes, links):
        return []
    cut = bridges(network.num_nodes, links)
    return [link for link in links if link not in cut]


def remove_random_edge(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Remove one link whose deletion keeps the graph connected."""
    links = undirected_links(network)
    candidates = removable_links(network)
    if not candidates:
        return None
    links.discard(candidates[int(rng.integers(0, len(candidates)))])
    return _rebuild(network.num_nodes, links, network, "-e")


def distinct_link_failures(
    network: Network, num_failures: int, rng: np.random.Generator
) -> list[Network]:
    """Up to ``num_failures`` *distinct* single-link-failure variants.

    Each variant removes one random link whose loss keeps the graph
    connected; duplicate draws are rejected until enough distinct variants
    exist or the draw budget (50 per requested failure) runs out, in which
    case fewer variants are returned and the caller decides whether that
    is an error.  The draw loop is bit-compatible with the historical
    ``link_failure_sweep`` pool builder: same RNG consumption, same
    variants for the same generator state.
    """
    if num_failures < 1:
        raise ValueError(f"need num_failures >= 1, got {num_failures}")
    failed: list[Network] = []
    seen: set[frozenset] = set()
    attempts = 0
    while len(failed) < num_failures and attempts < 50 * num_failures:
        attempts += 1
        candidate = remove_random_edge(network, rng)
        if candidate is None:
            continue
        key = frozenset(tuple(edge) for edge in candidate.edges)
        if key in seen:
            continue
        seen.add(key)
        failed.append(candidate)
    return failed


def failed_links(base: Network, variant: Network) -> list[tuple[int, int]]:
    """The undirected links of ``base`` absent from ``variant``, sorted."""
    return sorted(undirected_links(base) - undirected_links(variant))


def add_random_node(network: Network, rng: np.random.Generator, degree: int = 2) -> Network:
    """Append a node attached to ``degree`` random existing nodes."""
    new_node = network.num_nodes
    degree = min(degree, network.num_nodes)
    attach = rng.choice(network.num_nodes, size=degree, replace=False)
    links = undirected_links(network)
    for target in attach:
        links.add((int(target), new_node))
    return _rebuild(network.num_nodes + 1, links, network, "+n")


def remove_random_node(network: Network, rng: np.random.Generator) -> Optional[Network]:
    """Delete one node whose removal keeps the remainder connected.

    The surviving nodes are relabelled to ``0..n-2`` preserving order.
    """
    if network.num_nodes <= 3:
        return None
    links = undirected_links(network)
    candidates = [
        victim
        for victim in range(network.num_nodes)
        if is_connected(
            network.num_nodes - 1,
            [(u - (u > victim), v - (v > victim)) for u, v in links if victim not in (u, v)],
        )
    ]
    if not candidates:
        return None
    victim = candidates[int(rng.integers(0, len(candidates)))]
    relabel = {old: new for new, old in enumerate(n for n in range(network.num_nodes) if n != victim)}
    new_links = {
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
        for u, v in links
        if victim not in (u, v)
    }
    return _rebuild(network.num_nodes - 1, new_links, network, "-n")


def random_modification(
    network: Network,
    seed: SeedLike = None,
    num_changes: Optional[int] = None,
    kinds: Sequence[str] = MODIFICATION_KINDS,
) -> Network:
    """Apply one or two random add/remove node/edge changes (paper §VIII-D).

    Parameters
    ----------
    network:
        The base topology (e.g. Abilene).
    seed:
        Seed or generator controlling the perturbation.
    num_changes:
        1 or 2; drawn uniformly when omitted, as in the paper.
    kinds:
        Subset of :data:`MODIFICATION_KINDS` to draw from.

    Infeasible draws (e.g. removing an edge from a tree) are re-drawn; the
    function always returns a connected network different from or equal in
    distribution to the paper's operator.
    """
    for kind in kinds:
        if kind not in MODIFICATION_KINDS:
            raise ValueError(f"unknown modification kind {kind!r}")
    rng = rng_from_seed(seed)
    if num_changes is None:
        num_changes = int(rng.integers(1, 3))
    if num_changes < 1:
        raise ValueError("num_changes must be >= 1")

    operators = {
        "add_edge": add_random_edge,
        "remove_edge": remove_random_edge,
        "add_node": add_random_node,
        "remove_node": remove_random_node,
    }
    current = network
    applied = 0
    attempts = 0
    while applied < num_changes and attempts < 50 * num_changes:
        attempts += 1
        kind = kinds[int(rng.integers(0, len(kinds)))]
        result = operators[kind](current, rng)
        if result is not None:
            current = result
            applied += 1
    return current
