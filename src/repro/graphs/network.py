"""The :class:`Network` model: a capacitated directed graph.

The paper models the network as ``G = (V, E, c)`` — a directed graph whose
edges carry link capacities (§IV-A).  :class:`Network` stores that graph in
array form so every consumer works from the same precomputed incidence
structure:

* ``edges``            — list of ``(u, v)`` pairs, index = edge id;
* ``capacities``       — float array aligned with ``edges``;
* ``senders/receivers``— integer arrays (the GNN message-passing view);
* ``out_edges[v]``     — edge ids leaving ``v`` (the routing view);
* ``edge_index[(u,v)]``— edge id lookup.

Zoo topologies are undirected; :meth:`Network.from_undirected` instantiates
both directions of every link, which matches how the paper (and Valadarsky et
al.) treat full-duplex links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.graphs import kernels

if TYPE_CHECKING:
    import networkx as nx

DEFAULT_CAPACITY = 10_000.0


class Network:
    """An immutable capacitated directed graph.

    Parameters
    ----------
    num_nodes:
        Number of vertices; vertices are the integers ``0..num_nodes-1``.
    edges:
        Directed edge list ``[(u, v), ...]``.  Duplicate edges and
        self-loops are rejected.
    capacities:
        Either a scalar applied to all edges, or a sequence aligned with
        ``edges``.  All capacities must be positive.
    name:
        Optional human-readable topology name.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Sequence[tuple[int, int]],
        capacities: Union[float, Sequence[float]] = DEFAULT_CAPACITY,
        name: str = "",
    ):
        if num_nodes <= 1:
            raise ValueError(f"a network needs at least 2 nodes, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.name = name

        edge_list: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u},{v}) out of range for {num_nodes} nodes")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            edge_list.append((u, v))
        if not edge_list:
            raise ValueError("a network needs at least one edge")
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self.num_edges = len(edge_list)

        if np.isscalar(capacities):
            caps = np.full(self.num_edges, float(capacities))
        else:
            caps = np.asarray(capacities, dtype=np.float64)
            if caps.shape != (self.num_edges,):
                raise ValueError(
                    f"capacities has shape {caps.shape}, expected ({self.num_edges},)"
                )
        if np.any(caps <= 0.0):
            raise ValueError("all capacities must be positive")
        self.capacities = caps
        self.capacities.flags.writeable = False

        self.senders = np.array([u for u, _ in edge_list], dtype=np.int64)
        self.receivers = np.array([v for _, v in edge_list], dtype=np.int64)
        self.senders.flags.writeable = False
        self.receivers.flags.writeable = False

        self.edge_index: dict[tuple[int, int], int] = {e: i for i, e in enumerate(edge_list)}
        out_edges: list[list[int]] = [[] for _ in range(num_nodes)]
        in_edges: list[list[int]] = [[] for _ in range(num_nodes)]
        for idx, (u, v) in enumerate(edge_list):
            out_edges[u].append(idx)
            in_edges[v].append(idx)
        self.out_edges: tuple[tuple[int, ...], ...] = tuple(tuple(e) for e in out_edges)
        self.in_edges: tuple[tuple[int, ...], ...] = tuple(tuple(e) for e in in_edges)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_undirected(
        cls,
        num_nodes: int,
        links: Sequence[tuple[int, int]],
        capacities: Union[float, Sequence[float]] = DEFAULT_CAPACITY,
        name: str = "",
    ) -> "Network":
        """Build a bidirected network from an undirected link list.

        Each link ``(u, v)`` becomes two directed edges with the same
        capacity — the standard full-duplex interpretation used by the
        Topology Zoo graphs in the paper.
        """
        if not np.isscalar(capacities):
            caps = np.asarray(capacities, dtype=np.float64)
            if caps.shape != (len(links),):
                raise ValueError(
                    f"capacities has shape {caps.shape}, expected ({len(links)},)"
                )
            directed_caps = np.concatenate([caps, caps])
        else:
            directed_caps = capacities
        directed = [(u, v) for u, v in links] + [(v, u) for u, v in links]
        return cls(num_nodes, directed, directed_caps, name=name)

    @classmethod
    def from_networkx(cls, graph: nx.Graph, capacity_key: str = "capacity", name: str = "") -> "Network":
        """Convert a networkx graph (directed or undirected, any node labels).

        Node labels are mapped to ``0..n-1`` in sorted order; missing
        ``capacity`` attributes fall back to :data:`DEFAULT_CAPACITY`.
        """
        nodes = sorted(graph.nodes())
        relabel = {node: i for i, node in enumerate(nodes)}
        if graph.is_directed():
            raw_edges = list(graph.edges(data=True))
        else:
            raw_edges = [(u, v, d) for u, v, d in graph.edges(data=True)]
            raw_edges += [(v, u, d) for u, v, d in graph.edges(data=True)]
        edges = [(relabel[u], relabel[v]) for u, v, _ in raw_edges]
        caps = [float(d.get(capacity_key, DEFAULT_CAPACITY)) for _, _, d in raw_edges]
        return cls(len(nodes), edges, caps, name=name or getattr(graph, "name", ""))

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` with ``capacity`` attributes."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(range(self.num_nodes))
        for idx, (u, v) in enumerate(self.edges):
            graph.add_edge(u, v, capacity=float(self.capacities[idx]))
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbours(self, v: int) -> list[int]:
        """Out-neighbours of ``v`` (the Γ(v) of the paper)."""
        return [self.edges[e][1] for e in self.out_edges[v]]

    def capacity(self, u: int, v: int) -> float:
        """Capacity of edge ``(u, v)``; raises ``KeyError`` if absent."""
        return float(self.capacities[self.edge_index[(u, v)]])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_index

    def is_strongly_connected(self) -> bool:
        """Whether every ordered node pair is connected by a directed path."""
        distances = kernels.batch_distances_to_targets(self, np.ones(self.num_edges))
        return bool(np.isfinite(distances).all())

    def with_capacities(self, capacities: Union[float, Sequence[float]]) -> "Network":
        """Return a copy of this topology with different link capacities."""
        return Network(self.num_nodes, self.edges, capacities, name=self.name)

    def shortest_path_distances(
        self, weights: Optional[np.ndarray] = None, target: Optional[int] = None
    ) -> np.ndarray:
        """Weighted distance matrix (or a distance-to-target vector).

        Parameters
        ----------
        weights:
            Per-edge positive weights aligned with :attr:`edges`; unit
            weights when omitted.
        target:
            If given, return the 1-D array ``d[v] = dist(v, target)``;
            otherwise the full ``(n, n)`` matrix ``d[u, v] = dist(u, v)``.
            Unreachable pairs give ``inf``.
        """
        if weights is None:
            weights = np.ones(self.num_edges)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.num_edges,):
                raise ValueError(
                    f"weights has shape {weights.shape}, expected ({self.num_edges},)"
                )
            if np.any(weights < 0.0):
                raise ValueError("shortest-path weights must be non-negative")
        if target is not None:
            return self._distances_to(int(target), weights)
        return kernels.batch_distances_to_targets(self, weights).T.copy()

    def _distances_to(self, target: int, weights: np.ndarray) -> np.ndarray:
        """Dijkstra on the reversed graph from ``target``."""
        import heapq

        dist = np.full(self.num_nodes, np.inf)
        dist[target] = 0.0
        heap: list[tuple[float, int]] = [(0.0, target)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for edge_id in self.in_edges[v]:
                u = self.edges[edge_id][0]
                candidate = d + weights[edge_id]
                if candidate < dist[u]:
                    dist[u] = candidate
                    heapq.heappush(heap, (candidate, u))
        return dist

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Network({label} |V|={self.num_nodes}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.edges == other.edges
            and np.array_equal(self.capacities, other.capacities)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.edges, self.capacities.tobytes()))
