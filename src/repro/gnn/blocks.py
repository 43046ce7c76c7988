"""The full graph-network block of Battaglia et al. (paper §IV).

One :class:`GNBlock` application performs the three φ updates with their ρ
poolings, in the canonical order:

1. **edge update** — ``e'_k = φ_e([e_k, v_{r_k}, v_{s_k}, u])``
2. **node update** — ``v'_i = φ_v([v_i, ρ_{e→v}(e'), u])`` where ``ρ_{e→v}``
   pools the updated attributes of edges *received* at ``i``;
3. **global update** — ``u' = φ_u([ρ_{e→u}(e'), ρ_{v→u}(v'), u])``.

Each φ is an MLP (as in the paper); each ρ is an unsorted segment sum, the
paper's ``tf.unsorted_segment_sum`` (:func:`repro.tensor.segment_sum`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.graphs_tuple import GraphsTuple
from repro.tensor import concatenate, gather_rows, segment_sum
from repro.tensor.nn import MLP, Module


class GNBlock(Module):
    """A full GN block with MLP update functions.

    Parameters
    ----------
    edge_model / node_model / global_model:
        The φ MLPs.  Their input widths must match the concatenations
        described in the module docstring; :meth:`build` computes them
        for you.
    """

    def __init__(self, edge_model: MLP, node_model: MLP, global_model: MLP):
        self.edge_model = edge_model
        self.node_model = node_model
        self.global_model = global_model

    @classmethod
    def build(
        cls,
        edge_in: int,
        node_in: int,
        global_in: int,
        rng: np.random.Generator,
        hidden: int = 32,
        out: Optional[int] = None,
        depth: int = 2,
        activation: str = "relu",
        layer_norm: bool = True,
    ) -> "GNBlock":
        """Construct a block whose three MLPs map to a common width ``out``.

        ``depth`` counts hidden layers; every MLP ends at ``out`` (default:
        ``hidden``) and may be followed by layer normalisation (the
        graph-nets convention that keeps sum-pooled magnitudes under
        control).
        """
        out = hidden if out is None else out
        edge_input = edge_in + 2 * node_in + global_in
        node_input = node_in + out + global_in
        global_input = out + out + global_in

        def make(width_in: int) -> MLP:
            sizes = [width_in] + [hidden] * depth + [out]
            return MLP(sizes, rng, activation=activation, layer_norm=layer_norm)

        return cls(make(edge_input), make(node_input), make(global_input))

    def forward(self, graph: GraphsTuple) -> GraphsTuple:
        sender_nodes = gather_rows(graph.nodes, graph.senders)
        receiver_nodes = gather_rows(graph.nodes, graph.receivers)
        edge_globals = gather_rows(graph.globals_, graph.edge_graph_ids)
        edge_input = concatenate(
            [graph.edges, receiver_nodes, sender_nodes, edge_globals], axis=1
        )
        new_edges = self.edge_model(edge_input)

        # ρ(e→v): pool updated edge attributes at their receivers.
        received = segment_sum(new_edges, graph.receivers, graph.num_nodes)
        node_globals = gather_rows(graph.globals_, graph.node_graph_ids)
        node_input = concatenate([graph.nodes, received, node_globals], axis=1)
        new_nodes = self.node_model(node_input)

        edges_per_graph = segment_sum(new_edges, graph.edge_graph_ids, graph.num_graphs)
        nodes_per_graph = segment_sum(new_nodes, graph.node_graph_ids, graph.num_graphs)
        global_input = concatenate(
            [edges_per_graph, nodes_per_graph, graph.globals_], axis=1
        )
        new_globals = self.global_model(global_input)

        return graph.with_features(nodes=new_nodes, edges=new_edges, globals_=new_globals)
