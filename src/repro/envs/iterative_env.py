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
the translation/simulation on the final sub-step runs on the vectorized
batch engine via :class:`~repro.envs.reward.RewardComputer`.

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
from repro.rl.spaces import Box
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike
from repro.utils.validation import check_gamma


def set_edge_weight(
    raw_weights: np.ndarray, set_flags: np.ndarray, edge: int, weight_output
) -> None:
    """One sub-step's transition, in place: clip the weight output(s) to
    ``[-1, 1]`` into column ``edge`` of ``raw_weights`` and flag the edge set.

    ``raw_weights`` is one DM's ``(num_edges,)`` row (the environment) or
    ``(T, num_edges)`` for ``T`` DMs stepped in lockstep (the evaluator),
    with ``weight_output`` a scalar or ``(T,)`` to match.
    """
    raw_weights[..., edge] = np.clip(weight_output, -1.0, 1.0)
    set_flags[edge] = 1.0


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
        super().__init__(network, sequences, memory_length, sample_sequences, seed)
        low, high = (check_gamma(bound) for bound in gamma_range)
        if not 0.0 < low < high:
            raise ValueError(f"gamma_range needs 0 < low < high, got {gamma_range}")
        self.weight_scale = float(weight_scale)
        self.gamma_range = (low, high)
        self.rewarder = reward_computer or RewardComputer()

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
    def _observation(self, target_edge: Optional[int]) -> GraphObservation:
        step = min(self._step_index, len(self._sequence))
        if self._history_step != step:
            # One DM spans num_edges sub-steps; normalise its history once.
            self._history = demand_history(
                self._sequence, step, self.memory_length, self.demand_scale
            )
            self._history_step = step
        return GraphObservation(
            self.network,
            self._history,
            edge_state=edge_markers(self._raw_weights, self._set_flags, target_edge),
        )

    def routing_reward(
        self, demand: np.ndarray, raw_weights: np.ndarray, gamma_output: float
    ) -> tuple[float, dict]:
        """Equation 2 once every edge of a DM is set.

        ``raw_weights`` are the clipped per-edge weight outputs and
        ``gamma_output`` the final sub-step's raw γ output.
        """
        gamma = gamma_from_action(gamma_output, self.gamma_range)
        weights = weights_from_action(raw_weights, self.weight_scale)
        reward, info = self.rewarder.reward(self.network, weights, gamma, demand)
        info["softmin_gamma"] = gamma
        return reward, info

    # ------------------------------------------------------------------
    def reset(self) -> GraphObservation:
        self._sequence = self._select_sequence()
        self._step_index = self.memory_length
        self._edge_pointer = 0
        self._raw_weights = np.zeros(self.network.num_edges)
        self._set_flags = np.zeros(self.network.num_edges)
        self._history_step = None
        self._history = None
        return self._observation(target_edge=0)

    def step(self, action: np.ndarray) -> tuple[GraphObservation, float, bool, dict]:
        if self._sequence is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != (2,):
            raise ValueError(f"action has shape {action.shape}, expected (2,)")

        edge = self._edge_pointer
        set_edge_weight(self._raw_weights, self._set_flags, edge, action[0])
        self._edge_pointer += 1

        if self._edge_pointer < self.network.num_edges:
            return self._observation(target_edge=self._edge_pointer), 0.0, False, {}

        # Final sub-step: translate, evaluate, advance to the next DM.
        reward, info = self.routing_reward(
            self._sequence.matrix(self._step_index), self._raw_weights, action[1]
        )

        self._step_index += 1
        done = self._step_index >= len(self._sequence)
        self._edge_pointer = 0
        self._raw_weights = np.zeros(self.network.num_edges)
        self._set_flags = np.zeros(self.network.num_edges)
        return self._observation(target_edge=0), reward, done, info

    @property
    def episode_length(self) -> int:
        """Sub-steps per episode for the shortest configured sequence."""
        return (min(len(seq) for seq in self.sequences) - self.memory_length) * (
            self.network.num_edges
        )
