"""Array graph kernels shared by routing, the batch engine and the LP layer.

Every routing table comes from three kernels: distances to the destinations
from one multi-source Dijkstra over a CSR view of the transposed graph,
cached per topology; the strictly-decreasing-distance keep mask (the DAG);
and one per-(row, tail vertex) normaliser turning edge shares into ratios.
Undirected connectivity and bridges (links whose loss disconnects the
graph, Tarjan 1974) serve the link-failure operators and the random-graph
generators.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.utils.caching import KeyedLRU


class _GraphStructure:
    """Weight-independent per-topology state, built once per edge list.

    ``indptr``/``indices`` are the canonical CSR pattern of the *transposed*
    graph (rows by receiver, columns by sender) and ``perm`` maps edge
    weights into its data slots; ``order``/``starts``/``seg_of_pos`` are
    the :func:`edge_segments` layout.
    """

    __slots__ = ("indptr", "indices", "perm", "order", "starts", "seg_of_pos")

    def __init__(self, network):
        # A Network has no parallel edges, so each edge owns one CSR slot.
        self.perm = np.lexsort((network.senders, network.receivers))
        self.indices = network.senders[self.perm].astype(np.int32)
        counts = np.bincount(network.receivers, minlength=network.num_nodes)
        self.indptr = np.r_[0, np.cumsum(counts)].astype(np.int32)
        self.order = np.argsort(network.senders, kind="stable")
        sorted_senders = network.senders[self.order]
        new_segment = np.r_[True, sorted_senders[1:] != sorted_senders[:-1]]
        self.starts = np.flatnonzero(new_segment)
        self.seg_of_pos = np.cumsum(new_segment) - 1


#: Structures are tiny (a few index arrays) and keyed on the exact edge
#: list, so a modest LRU covers every topology a process touches.
_STRUCTURE_CACHE = KeyedLRU(max_entries=128)


def _graph_structure(network) -> _GraphStructure:
    # Networks are immutable, so the structure is memoised on the instance;
    # the LRU still shares one structure across equal re-built topologies.
    structure = getattr(network, "_graph_structure", None)
    if structure is None:
        key = (network.num_nodes, network.edges)
        structure = _STRUCTURE_CACHE.lookup(key, lambda: _GraphStructure(network))
        network._graph_structure = structure
    return structure


def edge_segments(network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge ids grouped by tail vertex: ``(order, starts, seg_of_pos)``.

    ``order`` sorts edges by sender (stable: edge ids ascend within a
    vertex), ``starts`` are the segment starts in that layout and
    ``seg_of_pos`` maps a sorted position to its segment.
    """
    structure = _graph_structure(network)
    return structure.order, structure.starts, structure.seg_of_pos


def batch_distances_to_targets(
    network, weights: np.ndarray, targets: Optional[np.ndarray] = None
) -> np.ndarray:
    """Weighted distances ``D[i, v] = dist(v, targets[i])``, ``inf`` if unreachable.

    ``targets`` defaults to every node, giving ``D[t, v] = dist(v, t)``.
    """
    # dist(v, t) in the graph is dist(t, v) in its transpose.
    structure = _graph_structure(network)
    data = np.asarray(weights, dtype=np.float64)[structure.perm]
    transposed = _csr(data, structure.indices, structure.indptr, network.num_nodes)
    return dijkstra(transposed, directed=True, indices=targets)


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, size: int) -> csr_matrix:
    """A square CSR matrix over an already canonical pattern.

    The pattern is filled in directly: the ``csr_matrix`` constructor
    re-validates it on every call, which costs more than Dijkstra itself on
    small graphs.
    """
    matrix = csr_matrix.__new__(csr_matrix)
    matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    matrix._shape = (size, size)
    return matrix


#: Nodes per block-diagonal Dijkstra in :func:`stacked_distances_to_targets`.
#: Its output is dense ``(nodes, nodes)``, so this caps it at 2 MiB.
STACKED_DIJKSTRA_NODES = 512


def stacked_distances_to_targets(network, weights: np.ndarray) -> np.ndarray:
    """:func:`batch_distances_to_targets` of every row of ``(T, num_edges)`` weights.

    Returns ``(T, num_nodes, num_nodes)``, bit-identical to ``T`` separate
    calls.  Up to :data:`STACKED_DIJKSTRA_NODES` nodes' worth of weight
    vectors run as one Dijkstra over a block-diagonal graph of copies of the
    topology, which on small topologies costs about half as much per copy
    as one call each.
    """
    weights = np.asarray(weights, dtype=np.float64)
    structure = _graph_structure(network)
    n, e = network.num_nodes, network.num_edges
    per_call = max(1, STACKED_DIJKSTRA_NODES // n)
    distances = np.empty((len(weights), n, n))
    for start in range(0, len(weights), per_call):
        block = weights[start : start + per_call]
        copies = np.arange(len(block))
        offsets = copies[:, np.newaxis]
        graph = _csr(
            block[:, structure.perm].ravel(),
            (structure.indices + n * offsets).ravel().astype(np.int32),
            np.r_[0, (structure.indptr[1:] + e * offsets).ravel()].astype(np.int32),
            n * len(block),
        )
        full = dijkstra(graph, directed=True).reshape(len(block), n, len(block), n)
        distances[start : start + len(block)] = full[copies, :, copies, :]
    return distances


def decreasing_distance_mask(network, distances: np.ndarray) -> np.ndarray:
    """Routing DAGs from ``(rows, num_nodes)`` distances to each row's target.

    Keeps ``(u, v)`` iff ``inf > D[i, u] > D[i, v]``: every row is acyclic,
    and under positive weights each vertex reaching the target keeps an edge.
    """
    tail = distances[:, network.senders]
    head = distances[:, network.receivers]
    return np.isfinite(tail) & np.isfinite(head) & (tail > head)


def normalise_segments(
    shares: np.ndarray, starts: np.ndarray, seg_of_pos: np.ndarray, floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Sum-and-divide per (row, segment) in the :func:`edge_segments` layout.

    Returns ``(ratios, covered)``; ``covered`` marks entries whose segment
    total exceeds ``floor``, and uncovered entries are zero.
    """
    totals = np.add.reduceat(shares, starts, axis=1)[:, seg_of_pos]
    covered = totals > floor
    ratios = np.divide(shares, totals, out=np.zeros_like(shares), where=covered)
    return ratios, covered


def normalise_out_edges(
    network, shares: np.ndarray, fallback: Optional[np.ndarray] = None, floor: float = 0.0
) -> np.ndarray:
    """Each out-edge's share over its tail vertex's total, per row.

    Where a vertex's total is at most ``floor`` its entries come from
    ``fallback`` (same ``(rows, num_edges)`` shape), or are zero without one.
    """
    order, starts, seg_of_pos = edge_segments(network)
    sorted_ratios, covered = normalise_segments(shares[:, order], starts, seg_of_pos, floor)
    if fallback is not None:
        sorted_ratios = np.where(covered, sorted_ratios, fallback[:, order])
    ratios = np.empty_like(sorted_ratios)
    ratios[:, order] = sorted_ratios
    return ratios


def undirected_links(network) -> set[tuple[int, int]]:
    """The set of undirected links ``(low, high)``, inserted in edge-id order."""
    return {(u, v) if u < v else (v, u) for u, v in network.edges}


def components(num_nodes: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Undirected components as ascending node lists, by smallest node."""
    pairs = np.asarray(list(links), dtype=np.int64).reshape(-1, 2)
    adjacency = csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(num_nodes, num_nodes)
    )
    _, labels = connected_components(adjacency, directed=False)
    groups: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(node)
    return list(groups.values())


def is_connected(num_nodes: int, links: Iterable[tuple[int, int]]) -> bool:
    """Whether the undirected graph on ``0..num_nodes-1`` is connected."""
    return len(components(num_nodes, links)) == 1


def bridges(num_nodes: int, links: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """The links whose removal disconnects their component (Tarjan 1974).

    One iterative depth-first pass over distinct undirected links: the tree
    link into ``v`` is a bridge iff ``low[v] > disc[parent]``.
    """
    links = list(links)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for link_id, (u, v) in enumerate(links):
        adjacency[u].append((v, link_id))
        adjacency[v].append((u, link_id))
    disc = [-1] * num_nodes
    low = [0] * num_nodes
    found = set()
    clock = itertools.count()
    for root in range(num_nodes):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(clock)
        stack = [(root, -1, iter(adjacency[root]))]  # (vertex, entry link, neighbours)
        while stack:
            v, via, neighbours = stack[-1]
            for w, link_id in neighbours:
                if link_id == via:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = next(clock)
                    stack.append((w, link_id, iter(adjacency[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        found.add(links[via])
    return found
