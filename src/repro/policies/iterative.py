"""The iterative GNN policy (paper §VII-B).

Same encode-process-decode body as the one-shot policy, but:

* edge inputs carry the ``(weight, set, target)`` markers of Equation 6,
  telling the network which edge is being set in this sub-step and what
  has been decided so far;
* the action is read from the decoded *global* attributes (Equation 7):
  a 2-vector ``(weight, γ)`` regardless of topology, plus the value head.

The fixed-size action is what allows *training* — not just inference —
across a mixture of topologies, which is why this policy performs best in
the paper's Figure 8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.envs.observation import GraphObservation
from repro.gnn.graphs_tuple import batch_graphs
from repro.gnn.models import EncodeProcessDecode
from repro.policies.base import ActorCriticPolicy
from repro.rl.distributions import DiagonalGaussian
from repro.utils.seeding import SeedLike, rng_from_seed

ACTION_DIM = 2  # (edge weight, softmin gamma)


class IterativeGNNPolicy(ActorCriticPolicy):
    """Iterative graph-network actor-critic (see module docstring)."""

    def __init__(
        self,
        memory_length: int = 5,
        latent: int = 16,
        num_processing_steps: int = 3,
        hidden: int = 32,
        depth: int = 2,
        reducer: str = "sum",
        seed: SeedLike = None,
        initial_log_std: float = -0.7,
    ):
        rng = rng_from_seed(seed)
        self.memory_length = int(memory_length)
        # Global decoder emits (weight mean, gamma mean, value).
        self.model = EncodeProcessDecode(
            node_in=2 * self.memory_length,
            edge_in=3,  # Equation 6 markers
            global_in=1,
            edge_out=0,
            global_out=ACTION_DIM + 1,
            rng=rng,
            latent=latent,
            num_processing_steps=num_processing_steps,
            hidden=hidden,
            depth=depth,
            reducer=reducer,
        )
        self.distribution = DiagonalGaussian(initial_log_std=initial_log_std)

    # ------------------------------------------------------------------
    def _check(self, observation) -> GraphObservation:
        if not isinstance(observation, GraphObservation):
            raise TypeError(
                f"IterativeGNNPolicy needs GraphObservation inputs, got "
                f"{type(observation).__name__}"
            )
        if observation.edge_state is None:
            raise ValueError(
                "IterativeGNNPolicy needs edge_state markers; use IterativeRoutingEnv"
            )
        if observation.memory_length != self.memory_length:
            raise ValueError(
                f"observation memory {observation.memory_length} does not match policy "
                f"memory {self.memory_length}"
            )
        return observation

    def _forward_batch(self, observations: Sequence[GraphObservation]):
        obs = [self._check(o) for o in observations]
        networks = [o.network for o in obs]
        graph = batch_graphs(
            networks,
            node_features=[o.node_demand_features() for o in obs],
            edge_features=[o.edge_state for o in obs],
        )
        _, global_out = self.model(graph)  # (B, 3)
        means = global_out[:, :ACTION_DIM].reshape((-1,))  # (B * 2,)
        values = global_out[:, ACTION_DIM]  # (B,)
        sample_ids = np.arange(len(obs)).repeat(ACTION_DIM)
        return means, values, sample_ids
