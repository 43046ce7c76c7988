"""Batched graph container for graph-network computation.

A :class:`GraphsTuple` holds a *batch* of attributed graphs in the flat
layout used by DeepMind's library of the same name: node attributes of all
graphs are stacked into one ``(N_total, f_v)`` tensor, edges into
``(E_total, f_e)``, per-graph globals into ``(B, f_u)``; ``senders`` /
``receivers`` index into the stacked node tensor, and ``*_graph_ids`` say
which graph each row belongs to.  Segment operations over those id arrays
implement all pooling, so a batch of heterogeneous topologies costs the
same small number of matrix multiplies as a single graph.

The incidence arrays of a batch depend only on its topologies, which repeat
on every rollout and minibatch, so :func:`batch_graphs` builds them once
per tuple of topologies and shares them (read-only) between calls; only the
feature blocks are stacked per call.  Because the arrays repeat, so do the
keys of the cached segment-sum patterns (:func:`repro.tensor.segment_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graphs.kernels import _graph_structure
from repro.graphs.network import Network
from repro.tensor import Tensor
from repro.utils.caching import KeyedLRU


@dataclass
class GraphsTuple:
    """A batch of attributed directed graphs (see module docstring).

    ``nodes``, ``edges`` and ``globals_`` are 2-D tensors; the remaining
    fields are constant numpy index arrays.
    """

    nodes: Tensor
    edges: Tensor
    globals_: Tensor
    senders: np.ndarray
    receivers: np.ndarray
    node_graph_ids: np.ndarray
    edge_graph_ids: np.ndarray
    num_graphs: int

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.edges.ndim != 2 or self.globals_.ndim != 2:
            raise ValueError("nodes, edges and globals_ must be 2-D")
        if self.globals_.shape[0] != self.num_graphs:
            raise ValueError(
                f"globals_ has {self.globals_.shape[0]} rows for {self.num_graphs} graphs"
            )
        if len(self.senders) != self.edges.shape[0] or len(self.receivers) != self.edges.shape[0]:
            raise ValueError("senders/receivers must align with edge rows")
        if len(self.node_graph_ids) != self.nodes.shape[0]:
            raise ValueError("node_graph_ids must align with node rows")
        if len(self.edge_graph_ids) != self.edges.shape[0]:
            raise ValueError("edge_graph_ids must align with edge rows")

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def with_features(
        self,
        nodes: Optional[Tensor] = None,
        edges: Optional[Tensor] = None,
        globals_: Optional[Tensor] = None,
    ) -> "GraphsTuple":
        """Copy of this tuple with some attribute tensors replaced.

        The structure (incidence arrays) is shared, which is what GN blocks
        need: they transform attributes, never topology.  Built by the
        constructor directly: ``dataclasses.replace`` introspects the fields
        on every call, and a forward makes five of these.
        """
        return GraphsTuple(
            nodes if nodes is not None else self.nodes,
            edges if edges is not None else self.edges,
            globals_ if globals_ is not None else self.globals_,
            self.senders,
            self.receivers,
            self.node_graph_ids,
            self.edge_graph_ids,
            self.num_graphs,
        )


def _feature_matrix(features: Optional[np.ndarray], rows: int, name: str) -> np.ndarray:
    """Normalise per-item features to a 2-D float array (zeros when absent)."""
    if features is None:
        return np.zeros((rows, 1))
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if features.shape[0] != rows:
        raise ValueError(f"{name} has {features.shape[0]} rows, expected {rows}")
    return features


#: Batch incidence arrays keyed on the topologies' shared structures
#: (:func:`repro.graphs.kernels._graph_structure`, one per distinct edge
#: list): a rollout's and a minibatch's batches hit, a batch of fresh random
#: topologies misses and costs what building the arrays always did.
_INCIDENCE_CACHE = KeyedLRU(max_entries=128)


def _batch_incidence(networks: Sequence[Network]) -> tuple[np.ndarray, ...]:
    """``(senders, receivers, node_graph_ids, edge_graph_ids)`` of a batch."""
    key = tuple(_graph_structure(network) for network in networks)
    return _INCIDENCE_CACHE.lookup(key, lambda: _build_incidence(networks))


def _build_incidence(networks: Sequence[Network]) -> tuple[np.ndarray, ...]:
    senders, receivers, node_ids, edge_ids = [], [], [], []
    offset = 0
    for i, network in enumerate(networks):
        senders.append(network.senders + offset)
        receivers.append(network.receivers + offset)
        node_ids.append(np.full(network.num_nodes, i, dtype=np.int64))
        edge_ids.append(np.full(network.num_edges, i, dtype=np.int64))
        offset += network.num_nodes
    arrays = tuple(np.concatenate(part) for part in (senders, receivers, node_ids, edge_ids))
    for array in arrays:
        array.flags.writeable = False  # shared by every batch of these topologies
    return arrays


def batch_graphs(
    networks: Sequence[Network],
    node_features: Sequence[Optional[np.ndarray]],
    edge_features: Optional[Sequence[Optional[np.ndarray]]] = None,
    global_features: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> GraphsTuple:
    """Stack per-graph feature arrays into one :class:`GraphsTuple`.

    Parameters
    ----------
    networks:
        The topologies; incidence arrays come from here with node indices
        offset per graph, built once per tuple of topologies.
    node_features:
        Per graph, an array ``(num_nodes, f_v)`` (or 1-D, or None for a
        zero placeholder).  Feature widths must agree across graphs.
    edge_features / global_features:
        Optional analogous sequences for edges (aligned with
        ``network.edges``) and per-graph global vectors.
    """
    if not networks:
        raise ValueError("batch_graphs needs at least one graph")
    if len(node_features) != len(networks):
        raise ValueError("node_features length must match networks")
    if edge_features is not None and len(edge_features) != len(networks):
        raise ValueError("edge_features length must match networks")
    if global_features is not None and len(global_features) != len(networks):
        raise ValueError("global_features length must match networks")

    node_blocks, edge_blocks, global_blocks = [], [], []
    for i, network in enumerate(networks):
        n, m = network.num_nodes, network.num_edges
        node_blocks.append(_feature_matrix(node_features[i], n, f"node_features[{i}]"))
        edge_blocks.append(
            _feature_matrix(
                None if edge_features is None else edge_features[i], m, f"edge_features[{i}]"
            )
        )
        raw_global = None if global_features is None else global_features[i]
        if raw_global is None:
            global_blocks.append(np.zeros((1, 1)))
        else:
            raw_global = np.asarray(raw_global, dtype=np.float64).reshape(1, -1)
            global_blocks.append(raw_global)

    senders, receivers, node_graph_ids, edge_graph_ids = _batch_incidence(networks)
    return GraphsTuple(
        nodes=Tensor(np.vstack(node_blocks)),
        edges=Tensor(np.vstack(edge_blocks)),
        globals_=Tensor(np.vstack(global_blocks)),
        senders=senders,
        receivers=receivers,
        node_graph_ids=node_graph_ids,
        edge_graph_ids=edge_graph_ids,
        num_graphs=len(networks),
    )
