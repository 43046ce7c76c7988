"""The one-shot GNN policy (paper §VII-A, Figure 5).

Node inputs are the per-vertex incoming/outgoing demand sums over the
history window (Equation 4); the encode-process-decode stack runs a fully
connected GN block for several message-passing rounds; decoded edge
attributes are the per-edge weight means (Equation 5) and the decoded
global attribute is the value estimate.

Because every learned function operates on attributes — never on a fixed
node/edge count — the same parameters apply to any topology: actions
simply come out with the current graph's edge count.  Batched evaluation
packs a whole minibatch (even of *different* topologies) into one
:class:`~repro.gnn.graphs_tuple.GraphsTuple` forward pass.
"""

from __future__ import annotations

from typing import Sequence

from repro.envs.observation import GraphObservation
from repro.gnn.graphs_tuple import batch_graphs
from repro.gnn.models import EncodeProcessDecode
from repro.policies.base import ActorCriticPolicy
from repro.rl.distributions import DiagonalGaussian
from repro.utils.seeding import SeedLike, rng_from_seed


class GNNPolicy(ActorCriticPolicy):
    """One-shot graph-network actor-critic.

    Parameters
    ----------
    memory_length:
        Demand-history window; node input width is ``2 * memory_length``.
    latent / num_processing_steps / hidden / depth:
        Graph-network hyperparameters (see
        :class:`~repro.gnn.models.EncodeProcessDecode`).
    seed:
        Weight initialisation.
    """

    def __init__(
        self,
        memory_length: int = 5,
        latent: int = 16,
        num_processing_steps: int = 3,
        hidden: int = 32,
        depth: int = 2,
        seed: SeedLike = None,
        initial_log_std: float = -0.7,
    ):
        rng = rng_from_seed(seed)
        self.memory_length = int(memory_length)
        self.model = EncodeProcessDecode(
            node_in=2 * self.memory_length,
            edge_in=1,  # one-shot envs carry no edge markers; zeros are fed
            global_in=1,
            edge_out=1,  # per-edge weight mean
            global_out=1,  # value estimate
            rng=rng,
            latent=latent,
            num_processing_steps=num_processing_steps,
            hidden=hidden,
            depth=depth,
        )
        self.distribution = DiagonalGaussian(initial_log_std=initial_log_std)

    # ------------------------------------------------------------------
    def _check(self, observation) -> GraphObservation:
        if not isinstance(observation, GraphObservation):
            raise TypeError(
                f"GNNPolicy needs GraphObservation inputs, got {type(observation).__name__}"
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
            edge_features=[o.edge_features() for o in obs],
        )
        edge_out, global_out = self.model(graph)
        means_flat = edge_out.reshape((-1,))  # (E_total,)
        values = global_out.reshape((-1,))  # (B,)
        return means_flat, values, graph.edge_graph_ids

    # Bound on the class itself so per-class instrumentation that targets
    # ``GNNPolicy.act_batch`` still finds it; it is the base implementation.
    act_batch = ActorCriticPolicy.act_batch
