"""The iterative routing environment (paper §VII-B).

Setting a routing for one demand matrix takes ``num_edges`` environment
steps: at sub-step ``j`` the observation's edge markers flag edge ``j`` as
the *target* (Equation 6: per-edge ``(weight, set, target)``), and the
agent's 2-dimensional action supplies the weight for that edge plus a γ
candidate (Equation 7: global output ``(weight, γ)``; only the final
sub-step's γ is used).  Once every edge is set, the routing is translated
and evaluated exactly like the one-shot environment and the reward is
delivered on that final sub-step (intermediate sub-steps reward 0).

Because one demand matrix spans ``num_edges`` sub-steps, the normalised
demand history is computed once per matrix and cached across its sub-steps;
the translation/simulation of the completed DM runs on the vectorized
batch engine via :meth:`~repro.envs.reward.RewardComputer.block_ratios`.

A DM's sub-steps depend only on each other, so each DM is a
:class:`~repro.rl.env.Chain` (:class:`SubStepChain`): PPO plans a rollout
window as chains and advances them in lockstep wavefronts, one forward per
in-window sub-step rather than per timestep, and a chain the window cuts
leaves its partial state here for the next window.

The fixed 2-dimensional action is what makes this environment — and the
policy trained on it — topology-agnostic.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.envs.observation import GraphObservation, demand_history, edge_markers
from repro.envs.reward import (
    DEFAULT_GAMMA_RANGE,
    DEFAULT_WEIGHT_SCALE,
    RewardComputer,
    gamma_from_action,
    weights_from_action,
)
from repro.envs.routing_env import WorkloadEnv
from repro.graphs.network import Network
from repro.rl.env import Chain
from repro.rl.spaces import Box
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike
from repro.utils.validation import check_gamma


class IterativeRoutingEnv(WorkloadEnv):
    """One-edge-per-action routing environment (see module docstring).

    Parameters mirror :class:`~repro.envs.routing_env.RoutingEnv`; the
    action space is always ``Box(-inf, inf, (2,))`` regardless of topology.
    """

    def __init__(
        self,
        network: Network,
        sequences: Sequence[DemandSequence],
        memory_length: int = 5,
        weight_scale: float = DEFAULT_WEIGHT_SCALE,
        gamma_range: tuple[float, float] = DEFAULT_GAMMA_RANGE,
        reward_computer: Optional[RewardComputer] = None,
        sample_sequences: bool = True,
        seed: SeedLike = None,
    ):
        super().__init__(
            network, sequences, memory_length, sample_sequences, seed, reward_computer
        )
        low, high = (check_gamma(bound) for bound in gamma_range)
        if not 0.0 < low < high:
            raise ValueError(f"gamma_range needs 0 < low < high, got {gamma_range}")
        self.weight_scale = float(weight_scale)
        self.gamma_range = (low, high)

        self.action_space = Box(-np.inf, np.inf, (2,))
        self.observation_space = None  # object observations (variable content)

        self._sequence: Optional[DemandSequence] = None
        self._step_index = 0
        self._edge_pointer = 0
        self._raw_weights = np.zeros(network.num_edges)
        self._set_flags = np.zeros(network.num_edges)
        self._history_step: Optional[int] = None
        self._history: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _current_history(self) -> np.ndarray:
        step = min(self._step_index, len(self._sequence))
        if self._history_step != step:
            # One DM spans num_edges sub-steps; normalise its history once.
            self._history = demand_history(
                self._sequence, step, self.memory_length, self.demand_scale
            )
            self._history_step = step
        return self._history

    def observation(self) -> GraphObservation:
        return GraphObservation(
            self.network,
            self._current_history(),
            edge_state=edge_markers(self._raw_weights, self._set_flags, self._edge_pointer),
        )

    def routing(
        self, demand: np.ndarray, raw_weights: np.ndarray, gamma_output: float
    ) -> tuple[Network, np.ndarray, float, np.ndarray]:
        """``(network, weights, gamma, demand)`` once every edge of a DM is set.

        ``raw_weights`` are the clipped per-edge weight outputs and
        ``gamma_output`` the final sub-step's raw γ output.
        """
        gamma = gamma_from_action(gamma_output, self.gamma_range)
        weights = weights_from_action(raw_weights, self.weight_scale)
        return self.network, weights, gamma, demand

    # ------------------------------------------------------------------
    def reset(self) -> GraphObservation:
        self._sequence = self._select_sequence()
        self._step_index = self.memory_length
        self._edge_pointer = 0
        self._raw_weights = np.zeros(self.network.num_edges)
        self._set_flags = np.zeros(self.network.num_edges)
        self._history_step = None
        self._history = None
        return self.observation()

    def chain(self, sequence: DemandSequence, step: int) -> "SubStepChain":
        """All sub-steps of ``sequence``'s demand matrix at ``step``, from no edge set."""
        m = self.network.num_edges
        history = demand_history(sequence, step, self.memory_length, self.demand_scale)
        return SubStepChain(
            self, history, sequence.matrix(step), np.zeros(m), np.zeros(m), 0, m
        )

    def plan_chain(self, budget: int) -> tuple["SubStepChain", bool]:
        """The current DM's next ``budget`` sub-steps, or all it has left.

        A cut chain shares the environment's partial-state arrays, so its
        actions leave the DM half set for the next plan; a complete one
        takes them along and the environment moves on to the next DM.
        """
        if self._sequence is None:
            raise RuntimeError("call reset() before step()")
        m = self.network.num_edges
        start = self._edge_pointer
        stop = min(start + budget, m)
        chain = SubStepChain(
            self,
            self._current_history(),
            self._sequence.matrix(self._step_index),
            self._raw_weights,
            self._set_flags,
            start,
            stop,
        )
        self._edge_pointer = stop
        if stop < m:
            return chain, False
        return chain, self._next_matrix()

    def _next_matrix(self) -> bool:
        """Move on to the next DM with no edge set; True when the episode ends."""
        self._step_index += 1
        self._edge_pointer = 0
        self._raw_weights = np.zeros(self.network.num_edges)
        self._set_flags = np.zeros(self.network.num_edges)
        return self._step_index >= len(self._sequence)

    @property
    def episode_length(self) -> int:
        """Sub-steps per episode for the shortest configured sequence."""
        return (min(len(seq) for seq in self.sequences) - self.memory_length) * (
            self.network.num_edges
        )


class SubStepChain(Chain):
    """One DM's sub-steps ``start .. stop - 1``: sub-step ``j`` sets edge ``j``.

    ``raw_weights`` and ``set_flags`` are the DM's partial state, updated in
    place as the chain acts; the DM is scored once its last edge is set.
    """

    action_size = 2

    def __init__(
        self,
        env: IterativeRoutingEnv,
        history: np.ndarray,
        demand: np.ndarray,
        raw_weights: np.ndarray,
        set_flags: np.ndarray,
        start: int,
        stop: int,
    ):
        self._env = env
        self._history = history
        self._demand = demand
        self._raw_weights = raw_weights
        self._set_flags = set_flags
        self._edge = start
        self.length = stop - start
        self.complete = stop == env.network.num_edges
        self._gamma_output: Optional[float] = None

    def observation(self) -> GraphObservation:
        return GraphObservation(
            self._env.network,
            self._history,
            edge_state=edge_markers(self._raw_weights, self._set_flags, self._edge),
        )

    def act(self, action: np.ndarray) -> None:
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != (2,):
            raise ValueError(f"action has shape {action.shape}, expected (2,)")
        self._raw_weights[self._edge] = np.clip(action[0], -1.0, 1.0)
        self._set_flags[self._edge] = 1.0
        self._edge += 1
        self._gamma_output = action[1]

    def routing(self) -> tuple[Network, np.ndarray, float, np.ndarray]:
        return self._env.routing(self._demand, self._raw_weights, self._gamma_output)
