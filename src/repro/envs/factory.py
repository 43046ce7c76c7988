"""The one place a single-topology routing environment is chosen and built."""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.envs.iterative_env import IterativeRoutingEnv
from repro.envs.reward import RewardComputer
from repro.envs.routing_env import RoutingEnv
from repro.graphs.dynamics import NetworkTimeline
from repro.graphs.network import Network
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike

InnerEnv = Union[RoutingEnv, IterativeRoutingEnv]


def make_routing_env(
    network: Network,
    sequences: Sequence[DemandSequence],
    *,
    iterative: bool,
    memory_length: int,
    softmin_gamma: float,
    weight_scale: float,
    reward_computer: Optional[RewardComputer],
    seed: SeedLike,
    sample_sequences: bool = True,
    dynamics: Optional[NetworkTimeline] = None,
) -> InnerEnv:
    """:class:`IterativeRoutingEnv` when ``iterative``, else :class:`RoutingEnv`.

    The iterative environment picks γ per action, so ``softmin_gamma``
    only reaches the one-shot one; ``dynamics`` is one-shot only, because
    the iterative sub-step loop is bound to one edge set.
    """
    if iterative:
        if dynamics is not None:
            raise ValueError(
                "iterative policies cannot evaluate dynamic scenarios "
                "(their sub-step loop is bound to one edge set)"
            )
        return IterativeRoutingEnv(
            network,
            sequences,
            memory_length=memory_length,
            weight_scale=weight_scale,
            reward_computer=reward_computer,
            sample_sequences=sample_sequences,
            seed=seed,
        )
    return RoutingEnv(
        network,
        sequences,
        memory_length=memory_length,
        softmin_gamma=softmin_gamma,
        weight_scale=weight_scale,
        reward_computer=reward_computer,
        sample_sequences=sample_sequences,
        seed=seed,
        dynamics=dynamics,
    )
