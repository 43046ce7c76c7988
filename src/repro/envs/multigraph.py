"""Multi-topology environment for the generalisation experiments (Fig. 8).

Wraps a pool of per-topology environments and draws one per episode.  Both
one-shot and iterative inner environments are supported; for the one-shot
case the action length follows the *current* topology's edge count, which
only GNN policies can provide — exactly the paper's point about MLPs not
being applicable in this setting.  Either pool is chained
(:mod:`repro.rl.env`) like its members: the episode's member plans each
chain, and a block of chains from several members — several topologies —
is scored in one call.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.envs.factory import InnerEnv, make_routing_env
from repro.envs.reward import RewardComputer
from repro.graphs.network import Network
from repro.rl.env import Chain, Env
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike, rng_from_seed


class MultiGraphRoutingEnv(Env):
    """Episode-level mixture over per-topology routing environments.

    Parameters
    ----------
    graph_sequences:
        List of ``(network, sequences)`` pairs; one inner environment is
        built per pair.
    iterative:
        Build iterative inner envs (fixed 2-D actions) instead of one-shot
        ones (per-edge actions); see
        :func:`~repro.envs.factory.make_routing_env`.
    memory_length / softmin_gamma / weight_scale:
        Forwarded to the inner environments.
    reward_computer:
        Shared LP cache; one is created when omitted so all inner envs
        share solves.
    seed:
        Controls both the episode-level topology draw and the inner
        sequence draws.
    """

    chained = True

    def __init__(
        self,
        graph_sequences: Sequence[tuple[Network, Sequence[DemandSequence]]],
        iterative: bool = False,
        memory_length: int = 5,
        softmin_gamma: float = 2.0,
        weight_scale: float = 3.0,
        reward_computer: Optional[RewardComputer] = None,
        seed: SeedLike = None,
    ):
        if not graph_sequences:
            raise ValueError("need at least one (network, sequences) pair")
        self.rewarder = reward_computer or RewardComputer()
        self._rng = rng_from_seed(seed)
        self.iterative = bool(iterative)
        self.inner_envs: list[InnerEnv] = []
        for network, sequences in graph_sequences:
            child_seed = int(self._rng.integers(0, 2**31 - 1))
            self.inner_envs.append(
                make_routing_env(
                    network,
                    sequences,
                    iterative=self.iterative,
                    memory_length=memory_length,
                    softmin_gamma=softmin_gamma,
                    weight_scale=weight_scale,
                    reward_computer=self.rewarder,
                    seed=child_seed,
                )
            )
        self._current: Optional[InnerEnv] = None
        # Spaces vary per topology in the one-shot case; expose the
        # iterative fixed space when available.
        self.action_space = self.inner_envs[0].action_space if iterative else None
        self.observation_space = None

    @property
    def networks(self) -> list[Network]:
        """The topology pool, in construction order."""
        return [env.network for env in self.inner_envs]

    @property
    def current_network(self) -> Network:
        """Topology of the episode in progress."""
        if self._current is None:
            raise RuntimeError("call reset() first")
        return self._current.network

    def reset(self):
        index = int(self._rng.integers(0, len(self.inner_envs)))
        self._current = self.inner_envs[index]
        return self._current.reset()

    def _episode_env(self) -> InnerEnv:
        if self._current is None:
            raise RuntimeError("call reset() before step()")
        return self._current

    def plan_chain(self, budget: int):
        return self._episode_env().plan_chain(budget)

    def score_chains(self, chains: Sequence[Chain]) -> np.ndarray:
        """Each chain scored on its own member's network, in one call."""
        return -self.rewarder.block_ratios([chain.routing() for chain in chains])

    def observation(self):
        return self._episode_env().observation()
