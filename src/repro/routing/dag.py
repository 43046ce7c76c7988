"""Loop-breaking: converting a weighted graph into a routing DAG.

Softmin routing (paper §VI) can create routing loops, so the graph must be
converted to a DAG per flow before splitting ratios are assigned, *without*
collapsing to a single shortest path (multipath must survive for load
balancing).  Two pruners are provided:

* :func:`prune_by_distance` — keep edge ``(u, v)`` iff ``dist(u, t) >
  dist(v, t)`` under the agent's weights.  Strictly decreasing distance
  makes the kept subgraph acyclic, every vertex that can reach ``t`` keeps
  at least one outgoing edge (its shortest-path edge), and all
  distance-reducing detours survive, preserving multipath.  Because it only
  depends on the destination it is shared across sources.  This is the
  library default: one row of the kernel keep mask
  (:func:`repro.graphs.kernels.decreasing_distance_mask`).

* :func:`prune_graph_frontier` — a faithful implementation of the paper's
  Figure 3 algorithm: Dijkstra from the source recording ``frontier_meets``
  (non-tree edges where the search met an already-explored vertex), a
  back-trace from the sink marking the shortest path, then stitching in an
  alternative path across each frontier meet whose endpoints' first on-path
  ancestors sit at different distances from the sink.  The pseudocode in the
  paper leaves corner cases open; whenever the stitched graph would contain
  a cycle or lose ``s``→``t`` reachability this implementation skips the
  offending stitch, so its output is always a valid routing DAG.

Both return a boolean mask over ``network.edges`` (True = edge kept) and
reject vertex ids outside ``0..num_nodes-1``.  :func:`_dijkstra_with_meets`
is the library's one heap search: its Fig. 3 bookkeeping needs the paper's
tie order, not csgraph's.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.graphs.kernels import decreasing_distance_mask
from repro.graphs.network import Network
from repro.utils.validation import check_node


def prune_by_distance(
    network: Network, weights: np.ndarray, target: int
) -> np.ndarray:
    """Keep edges strictly decreasing in weighted distance-to-target.

    Parameters
    ----------
    network:
        Topology.
    weights:
        Positive per-edge weights (the agent's action after mapping).
    target:
        Flow destination ``t``.

    Returns
    -------
    Boolean mask over edges.  The kept subgraph is a DAG in which every
    vertex with finite distance to ``target`` has an outgoing edge, so a
    routing defined on it always delivers.
    """
    distances = network.shortest_path_distances(weights, target=target)
    return decreasing_distance_mask(network, distances[np.newaxis])[0]


def _dijkstra_with_meets(
    network: Network, weights: np.ndarray, source: int, target: int
) -> tuple[np.ndarray, dict[int, list[int]], list[tuple[int, int]]]:
    """Dijkstra from ``source`` recording parents and frontier meets.

    Returns (distance-from-source, parents, frontier_meets) following the
    paper's PRUNE GRAPH bookkeeping: ``parents[v]`` holds the predecessor
    through which ``v`` was settled (the sink may collect several), and
    ``frontier_meets`` are directed edges whose head was already explored
    when the tail was expanded.
    """
    n = network.num_nodes
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    parents: dict[int, list[int]] = {source: []}
    explored: set[int] = set()
    meets: list[tuple[int, int]] = []
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in explored or d > dist[v]:
            continue
        explored.add(v)
        for edge_id in network.out_edges[v]:
            u = network.edges[edge_id][1]
            if u == target:
                parents.setdefault(target, [])
                if v not in parents[target]:
                    parents[target].append(v)
                candidate = d + weights[edge_id]
                if candidate < dist[target]:
                    dist[target] = candidate
                continue
            if u in explored:
                meets.append((v, u))
                continue
            candidate = d + weights[edge_id]
            if candidate < dist[u]:
                dist[u] = candidate
                parents[u] = [v]
                heapq.heappush(heap, (candidate, u))
    return dist, parents, meets


def _first_on_path_ancestor(
    vertex: int, parents: dict[int, list[int]], on_path: set[int]
) -> tuple[Optional[int], list[int]]:
    """Walk parent links from ``vertex`` until hitting an on-path vertex.

    Returns the ancestor and the chain ``[vertex, ..., ancestor]`` (ancestor
    included).  Returns ``(None, [])`` when the walk dead-ends.
    """
    chain = [vertex]
    current = vertex
    seen = {vertex}
    while current not in on_path:
        links = parents.get(current, [])
        if not links:
            return None, []
        current = links[0]
        if current in seen:
            return None, []
        seen.add(current)
        chain.append(current)
    return current, chain


def _creates_cycle(kept: set[tuple[int, int]], num_nodes: int) -> bool:
    """DFS cycle check over the kept edge set."""
    adjacency: dict[int, list[int]] = {}
    for u, v in kept:
        adjacency.setdefault(u, []).append(v)
    state = [0] * num_nodes  # 0 unvisited, 1 in stack, 2 done
    for start in list(adjacency):
        if state[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        state[start] = 1
        while stack:
            node, child_idx = stack[-1]
            children = adjacency.get(node, [])
            if child_idx < len(children):
                stack[-1] = (node, child_idx + 1)
                child = children[child_idx]
                if state[child] == 1:
                    return True
                if state[child] == 0:
                    state[child] = 1
                    stack.append((child, 0))
            else:
                state[node] = 2
                stack.pop()
    return False


def prune_graph_frontier(
    network: Network, weights: np.ndarray, source: int, target: int
) -> np.ndarray:
    """The paper's Figure 3 DAG conversion (see module docstring).

    Returns a boolean edge mask.  Guaranteed to contain an acyclic
    ``source → target`` subgraph; stitches that would break acyclicity are
    skipped.
    """
    source = check_node("source", source, network.num_nodes)
    target = check_node("target", target, network.num_nodes)
    weights = np.asarray(weights, dtype=np.float64)
    dist_from_source, parents, meets = _dijkstra_with_meets(network, weights, source, target)
    if target not in parents:
        raise ValueError(f"target {target} unreachable from source {source}")

    # Back-trace from the sink along parent links, marking the shortest path
    # and keeping its edges oriented toward the sink.
    on_path: set[int] = set()
    kept: set[tuple[int, int]] = set()
    queue = [target]
    while queue:
        v = queue.pop()
        if v in on_path:
            continue
        on_path.add(v)
        for p in parents.get(v, []):
            if network.has_edge(p, v):
                kept.add((p, v))
            if p not in on_path:
                queue.append(p)

    dist_to_sink = network.shortest_path_distances(weights, target=target)

    # Stitch alternative paths across frontier meets.
    for v, u in meets:
        ancestor_v, chain_v = _first_on_path_ancestor(v, parents, on_path)
        ancestor_u, chain_u = _first_on_path_ancestor(u, parents, on_path)
        if ancestor_v is None or ancestor_u is None:
            continue
        if dist_to_sink[ancestor_v] == dist_to_sink[ancestor_u]:
            continue  # the paper skips equal-distance meets
        if dist_to_sink[ancestor_v] > dist_to_sink[ancestor_u]:
            far_chain, near_chain = chain_v, chain_u
            meet_edge = (v, u)
        else:
            if not network.has_edge(u, v):
                continue  # cannot traverse the meet edge in reverse
            far_chain, near_chain = chain_u, chain_v
            meet_edge = (u, v)
        # Path: far ancestor -> ... -> meet tail -> meet head -> ... -> near ancestor.
        candidate: set[tuple[int, int]] = set()
        for child, parent in zip(far_chain[:-1], far_chain[1:]):
            if not network.has_edge(parent, child):
                candidate = set()
                break
            candidate.add((parent, child))
        if not candidate and len(far_chain) > 1:
            continue
        candidate.add(meet_edge)
        ok = True
        for child, parent in zip(near_chain[:-1], near_chain[1:]):
            if not network.has_edge(child, parent):
                ok = False
                break
            candidate.add((child, parent))
        if not ok:
            continue
        trial = kept | candidate
        if _creates_cycle(trial, network.num_nodes):
            continue
        kept = trial
        for node in far_chain + near_chain:
            on_path.add(node)

    mask = np.zeros(network.num_edges, dtype=bool)
    for u, v in kept:
        mask[network.edge_index[(u, v)]] = True
    return mask


PRUNERS = {
    "distance": "destination-based strictly-decreasing-distance rule",
    "frontier": "paper Figure 3 frontier-meet algorithm",
}
