"""The one-shot routing environment (paper §V, Figure 1).

One episode walks one demand sequence.  At each timestep the agent sees
the previous ``memory_length`` demand matrices (normalised) and emits a
full edge-weight vector; softmin routing translates it; the reward is
``-U_agent/U_opt`` measured on the *current* (unseen) demand matrix —
the agent must exploit the temporal regularity of the cyclical sequences
to do better than any static routing.

The translate + simulate work runs on the vectorized batch engine (all
destinations of a block of steps stacked into one array program) via
:meth:`~repro.envs.reward.RewardComputer.block_ratios`.

Since an observation is the demand history alone, the agent's action
decides the reward but never the next state: each timestep is a one-step
:class:`~repro.rl.env.Chain` (:class:`OneShotChain`), so PPO plans a whole
rollout before one batched forward and one stacked scoring call
(:meth:`WorkloadEnv.score_chains`), and
:func:`repro.engine.batch_evaluate` scores each slice of test steps of a
trained policy the same way.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.envs.observation import GraphObservation, demand_history
from repro.envs.reward import (
    DEFAULT_WEIGHT_SCALE,
    RewardComputer,
    weights_from_action,
)
from repro.graphs.dynamics import NetworkTimeline
from repro.graphs.network import Network
from repro.rl.env import Chain, Env
from repro.rl.spaces import Box
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike, rng_from_seed
from repro.utils.validation import check_gamma


def demand_normaliser(sequences: Sequence[DemandSequence]) -> float:
    """A scale making observations O(1): the mean positive demand entry."""
    positives = [seq.demands[seq.demands > 0.0] for seq in sequences if len(seq)]
    values = np.concatenate([p for p in positives if p.size] or [np.array([1.0])])
    scale = float(values.mean())
    return scale if scale > 0.0 else 1.0


class WorkloadEnv(Env):
    """The demand workload both single-topology routing environments walk.

    Checks that every sequence matches ``network`` and outlasts the history
    window, picks each episode's sequence (drawn from the environment's RNG,
    or round-robin with ``sample_sequences=False``), fixes the scale
    observations are normalised by, and scores planned chains: one chain
    per demand matrix, whose ``routing()`` is the
    ``(network, weights, gamma, demand)`` it set.
    """

    chained = True

    def __init__(
        self,
        network: Network,
        sequences: Sequence[DemandSequence],
        memory_length: int,
        sample_sequences: bool,
        seed: SeedLike,
        reward_computer: Optional[RewardComputer],
    ):
        if not sequences:
            raise ValueError("need at least one demand sequence")
        for seq in sequences:
            if seq.num_nodes != network.num_nodes:
                raise ValueError(
                    f"sequence over {seq.num_nodes} nodes does not match network "
                    f"({network.num_nodes})"
                )
            if len(seq) <= memory_length:
                raise ValueError(
                    f"sequence length {len(seq)} too short for memory {memory_length}"
                )
        self.network = network
        self.sequences = list(sequences)
        self.memory_length = int(memory_length)
        self.sample_sequences = bool(sample_sequences)
        self._rng = rng_from_seed(seed)
        self._round_robin = 0
        self.demand_scale = demand_normaliser(self.sequences)
        self.rewarder = reward_computer or RewardComputer()

    def score_chains(self, chains: Sequence[Chain]) -> np.ndarray:
        """Equation 2 for every complete chain, from one stacked call."""
        return -self.rewarder.block_ratios([chain.routing() for chain in chains])

    def _select_sequence(self) -> DemandSequence:
        if self.sample_sequences:
            return self.sequences[int(self._rng.integers(0, len(self.sequences)))]
        sequence = self.sequences[self._round_robin % len(self.sequences)]
        self._round_robin += 1
        return sequence


class RoutingEnv(WorkloadEnv):
    """Fixed-topology data-driven routing environment.

    Parameters
    ----------
    network:
        The topology to route over.
    sequences:
        Demand sequences; each episode uses one (chosen uniformly at
        random, or round-robin with ``sample_sequences=False``).
    memory_length:
        History window shown to the agent (5 in the paper).
    softmin_gamma:
        Fixed softmin spread for the translation (the one-shot policies do
        not choose γ; the iterative environment does).
    weight_scale:
        Action-to-weight exponent, see
        :func:`repro.envs.reward.weights_from_action`.
    reward_computer:
        Optionally share an LP cache across environments.
    seed:
        Sequence-selection randomness.
    dynamics:
        Optional :class:`~repro.graphs.dynamics.NetworkTimeline` putting a
        different network in force at each step: the observation carries
        that step's network (so graph-based policies emit correctly-sized
        per-edge actions) and the reward — agent utilisation *and* the LP
        optimum denominator — is measured on it.  ``None`` (the default)
        is the static environment, bit for bit.
    """

    def __init__(
        self,
        network: Network,
        sequences: Sequence[DemandSequence],
        memory_length: int = 5,
        softmin_gamma: float = 2.0,
        weight_scale: float = DEFAULT_WEIGHT_SCALE,
        reward_computer: Optional[RewardComputer] = None,
        sample_sequences: bool = True,
        seed: SeedLike = None,
        dynamics: Optional[NetworkTimeline] = None,
    ):
        super().__init__(
            network, sequences, memory_length, sample_sequences, seed, reward_computer
        )
        if check_gamma(softmin_gamma) <= 0.0:
            raise ValueError("softmin_gamma must be positive")
        if dynamics is not None:
            if dynamics.base is not network:
                raise ValueError("dynamics timeline was built for a different network")
            for seq in sequences:
                if len(seq) > len(dynamics):
                    raise ValueError(
                        f"sequence length {len(seq)} exceeds dynamics timeline "
                        f"of length {len(dynamics)}"
                    )
        self.dynamics = dynamics
        self.softmin_gamma = float(softmin_gamma)
        self.weight_scale = float(weight_scale)

        m = network.num_edges
        self.action_space = Box(-1.0, 1.0, (m,))
        n = network.num_nodes
        self.observation_space = Box(
            0.0, np.inf, (self.memory_length * n * n,)
        )

        self._sequence: Optional[DemandSequence] = None
        self._step_index = 0

    # ------------------------------------------------------------------
    def network_at(self, step: int) -> Network:
        """The network in force at ``step`` (the base network when static)."""
        if self.dynamics is None:
            return self.network
        return self.dynamics.network_at(step)

    def observation(self) -> GraphObservation:
        step = self._step_index
        # The observation emitted alongside ``done`` is never acted on and no
        # timeline step is in force past the sequence, so it shows the base.
        network = self.network if step >= len(self._sequence) else self.network_at(step)
        return GraphObservation(
            network,
            demand_history(self._sequence, step, self.memory_length, self.demand_scale),
        )

    # ------------------------------------------------------------------
    def reset(self) -> GraphObservation:
        self._sequence = self._select_sequence()
        self._step_index = self.memory_length
        return self.observation()

    def chain(self, sequence: DemandSequence, step: int) -> "OneShotChain":
        """The one-step chain acting on ``sequence``'s demand matrix at ``step``."""
        network = self.network_at(step)
        history = demand_history(sequence, step, self.memory_length, self.demand_scale)
        return OneShotChain(
            self, GraphObservation(network, history), (network, sequence.matrix(step))
        )

    def plan_chain(self, budget: int) -> tuple["OneShotChain", bool]:
        """The current timestep as a one-step chain (one-shot chains fit any budget)."""
        if self._sequence is None:
            raise RuntimeError("call reset() first")
        chain = self.chain(self._sequence, self._step_index)
        self._step_index += 1
        return chain, self._step_index >= len(self._sequence)

    def routing(
        self, context: tuple[Network, np.ndarray], action: np.ndarray
    ) -> tuple[Network, np.ndarray, float, np.ndarray]:
        """``(network, weights, gamma, demand)`` that ``action`` sets in ``context``."""
        network, demand = context
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (network.num_edges,):
            raise ValueError(
                f"action has shape {action.shape}, expected ({network.num_edges},)"
            )
        weights = weights_from_action(action, self.weight_scale)
        return network, weights, self.softmin_gamma, demand

    @property
    def episode_length(self) -> int:
        """Steps per episode for the shortest configured sequence."""
        return min(len(seq) for seq in self.sequences) - self.memory_length


class OneShotChain(Chain):
    """One one-shot timestep: its observation is known before any action."""

    length = 1
    complete = True

    def __init__(
        self, env: RoutingEnv, observation: GraphObservation, context: tuple[Network, np.ndarray]
    ):
        self._env = env
        self._observation = observation
        self.context = context
        self.action_size = context[0].num_edges
        self.action: Optional[np.ndarray] = None

    def observation(self) -> GraphObservation:
        return self._observation

    def act(self, action: np.ndarray) -> None:
        self.action = action

    def routing(self) -> tuple[Network, np.ndarray, float, np.ndarray]:
        return self._env.routing(self.context, self.action)
