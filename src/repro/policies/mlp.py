"""The MLP baseline policy of Valadarsky et al. (paper §VII, Figure 4).

Flattened demand history in, one weight per edge out, with a separate MLP
value head (the stable-baselines ``MlpPolicy`` arrangement the paper's
baseline used).  Input and output sizes are fixed at construction — the
very property that prevents this policy from generalising across
topologies and motivates the GNN policies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.envs.observation import GraphObservation
from repro.policies.base import ActorCriticPolicy
from repro.rl.distributions import DiagonalGaussian
from repro.tensor import Tensor
from repro.tensor.nn import MLP
from repro.utils.seeding import SeedLike, rng_from_seed


class MLPPolicy(ActorCriticPolicy):
    """Fixed-size MLP actor-critic.

    Parameters
    ----------
    num_nodes / num_edges:
        Topology dimensions the policy is built for (observations and
        actions must match them forever after).
    memory_length:
        Demand-history window; the input width is
        ``memory_length * num_nodes**2``.
    hidden:
        Hidden-layer widths (stable-baselines default ``(64, 64)``).
    seed:
        Weight initialisation.
    """

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        memory_length: int = 5,
        hidden: Sequence[int] = (64, 64),
        seed: SeedLike = None,
        initial_log_std: float = -0.7,
    ):
        rng = rng_from_seed(seed)
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self.memory_length = int(memory_length)
        self.input_dim = self.memory_length * self.num_nodes**2
        pi_sizes = [self.input_dim, *hidden, self.num_edges]
        vf_sizes = [self.input_dim, *hidden, 1]
        self.pi = MLP(pi_sizes, rng, activation="tanh", final_gain=0.01, initializer="orthogonal")
        self.vf = MLP(vf_sizes, rng, activation="tanh", initializer="orthogonal")
        self.distribution = DiagonalGaussian(initial_log_std=initial_log_std)

    # ------------------------------------------------------------------
    def _flat(self, observation) -> np.ndarray:
        if isinstance(observation, GraphObservation):
            flat = observation.history.ravel()
        else:
            flat = np.asarray(observation, dtype=np.float64).ravel()
        if flat.size != self.input_dim:
            raise ValueError(
                f"observation has {flat.size} entries; this MLP expects {self.input_dim} "
                "(fixed-size policies cannot change topology)"
            )
        return flat

    def _forward_batch(self, observations):
        """One stacked forward: row ``i`` of the input is observation ``i``."""
        x = Tensor(np.array([self._flat(obs) for obs in observations]))
        means = self.pi(x).reshape((-1,))  # (B * num_edges,)
        values = self.vf(x).reshape((-1,))  # (B,)
        sample_ids = np.arange(len(observations)).repeat(self.num_edges)
        return means, values, sample_ids
