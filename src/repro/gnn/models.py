"""The encode-process-decode model (paper §VII-A, Figure 5).

Structure: independent MLP *encoders* lift raw node/edge/global attributes
to a hidden width; a single full :class:`~repro.gnn.blocks.GNBlock` *core*
is applied ``num_processing_steps`` times, each time fed the concatenation
of the original encoded attributes with the latest latent state (the
"extra loop from output to input" in the paper's figure); finally MLP
*decoders* map the latent edge and global attributes to the requested
output widths.

Edge outputs serve the one-shot policy (a weight per edge); global outputs
serve the iterative policy (``(weight, γ)``) and both policies' value heads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.blocks import GNBlock
from repro.gnn.graphs_tuple import GraphsTuple
from repro.tensor import Tensor, concatenate
from repro.tensor.nn import MLP, Module


class EncodeProcessDecode(Module):
    """Encode → K × process → decode over a :class:`GraphsTuple`.

    Parameters
    ----------
    node_in / edge_in / global_in:
        Raw attribute widths of the input graphs.
    edge_out / global_out:
        Decoded output widths (set either to 0 to skip that decoder).
    rng:
        Weight-initialisation generator.
    latent:
        Hidden attribute width used throughout.
    num_processing_steps:
        How many times the core block runs (message-passing rounds); the
        effective receptive field grows one hop per step, so this should
        be at least the network diameter for global information flow.
    hidden / depth / activation:
        Passed through to the MLPs / core block.
    decoder_gain:
        Multiplier on the decoders' final-layer weights.  The default
        (0.01) makes an untrained policy emit near-zero outputs — i.e.
        uniform softmin weights, which already route like ECMP — so RL
        starts from the strong classical baseline instead of random
        weights (the same convention the MLP policy uses for its final
        layer, following stable-baselines).
    """

    def __init__(
        self,
        node_in: int,
        edge_in: int,
        global_in: int,
        edge_out: int,
        global_out: int,
        rng: np.random.Generator,
        latent: int = 16,
        num_processing_steps: int = 3,
        hidden: int = 32,
        depth: int = 2,
        activation: str = "relu",
        decoder_gain: float = 0.01,
    ):
        if num_processing_steps < 1:
            raise ValueError("num_processing_steps must be >= 1")
        if edge_out < 0 or global_out < 0 or edge_out + global_out == 0:
            raise ValueError("need at least one of edge_out/global_out positive")
        self.num_processing_steps = int(num_processing_steps)
        self.edge_out = int(edge_out)
        self.global_out = int(global_out)

        def encoder(width_in: int) -> MLP:
            return MLP([width_in, hidden, latent], rng, activation=activation, layer_norm=True)

        self.node_encoder = encoder(node_in)
        self.edge_encoder = encoder(edge_in)
        self.global_encoder = encoder(global_in)

        # The core consumes [encoded, latent] concatenations -> width 2*latent.
        self.core = GNBlock.build(
            edge_in=2 * latent,
            node_in=2 * latent,
            global_in=2 * latent,
            rng=rng,
            hidden=hidden,
            out=latent,
            depth=depth,
            activation=activation,
        )

        self.edge_decoder: Optional[MLP] = (
            MLP([latent, hidden, edge_out], rng, activation=activation, final_gain=decoder_gain)
            if edge_out
            else None
        )
        self.global_decoder: Optional[MLP] = (
            MLP([latent, hidden, global_out], rng, activation=activation, final_gain=decoder_gain)
            if global_out
            else None
        )

    def forward(self, graph: GraphsTuple) -> tuple[Optional[Tensor], Optional[Tensor]]:
        """Run the stack; returns ``(edge_outputs, global_outputs)``.

        ``edge_outputs`` has shape ``(E_total, edge_out)`` and
        ``global_outputs`` ``(B, global_out)``; either is ``None`` when the
        corresponding decoder was disabled.
        """
        encoded = graph.with_features(
            nodes=self.node_encoder(graph.nodes),
            edges=self.edge_encoder(graph.edges),
            globals_=self.global_encoder(graph.globals_),
        )
        latent = encoded
        for _ in range(self.num_processing_steps):
            core_input = encoded.with_features(
                nodes=concatenate([encoded.nodes, latent.nodes], axis=1),
                edges=concatenate([encoded.edges, latent.edges], axis=1),
                globals_=concatenate([encoded.globals_, latent.globals_], axis=1),
            )
            latent = self.core(core_input)

        edge_outputs = self.edge_decoder(latent.edges) if self.edge_decoder else None
        global_outputs = self.global_decoder(latent.globals_) if self.global_decoder else None
        return edge_outputs, global_outputs
