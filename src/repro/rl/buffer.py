"""Rollout storage and Generalised Advantage Estimation.

The buffer stores one trajectory of ``n_steps`` transitions in 1-D float
arrays (observations and actions remain Python objects: numpy arrays on
fixed topologies, graph observations on mixtures).
:meth:`RolloutBuffer.compute_returns_and_advantages` implements GAE(λ)
exactly as in PPO2, bootstrapping from the value of the state after the
final stored transition, and :meth:`RolloutBuffer.minibatches` shuffles the
transitions, in time order, with one permutation per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.utils.seeding import SeedLike, rng_from_seed


@dataclass
class Minibatch:
    """One PPO minibatch view into the buffer."""

    observations: list
    actions: list
    old_log_probs: np.ndarray
    old_values: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


class RolloutBuffer:
    """Fixed-capacity on-policy rollout storage.

    Parameters
    ----------
    n_steps:
        Number of transitions stored (PPO's ``n_steps``).
    gamma / gae_lambda:
        Discount and GAE smoothing parameters.
    """

    def __init__(self, n_steps: int, gamma: float = 0.99, gae_lambda: float = 0.95):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if not 0.0 <= gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {gae_lambda}")
        self.n_steps = n_steps
        self.gamma = float(gamma)
        self.gae_lambda = float(gae_lambda)
        self.reset()

    def reset(self) -> None:
        """Empty the buffer for the next rollout."""
        self.observations: list = []
        self.actions: list = []
        self.rewards = np.zeros(self.n_steps)
        self.dones = np.zeros(self.n_steps, dtype=bool)
        self.values = np.zeros(self.n_steps)
        self.log_probs = np.zeros(self.n_steps)
        self.advantages = np.zeros(self.n_steps)
        self.returns = np.zeros(self.n_steps)
        self.position = 0
        self._finalised = False

    @property
    def full(self) -> bool:
        return self.position >= self.n_steps

    def add(
        self,
        observation: Any,
        action: Any,
        reward: float,
        done: bool,
        value: float,
        log_prob: float,
    ) -> None:
        """Append one transition; raises when the buffer is already full."""
        if self.full:
            raise RuntimeError("rollout buffer is full; call reset() first")
        self.observations.append(observation)
        self.actions.append(action)
        self.rewards[self.position] = reward
        self.dones[self.position] = done
        self.values[self.position] = value
        self.log_probs[self.position] = log_prob
        self.position += 1

    def compute_returns_and_advantages(self, last_value: float, last_done: bool) -> None:
        """GAE(λ): fill :attr:`advantages` and :attr:`returns`.

        Parameters
        ----------
        last_value:
            Value estimate of the observation *after* the final stored
            transition.
        last_done:
            Whether the final transition ended an episode.
        """
        if not self.full:
            raise RuntimeError("buffer must be full before computing advantages")
        gae = 0.0
        for step in reversed(range(self.n_steps)):
            if step == self.n_steps - 1:
                next_non_terminal = 0.0 if last_done else 1.0
                next_value = last_value
            else:
                next_non_terminal = 0.0 if self.dones[step] else 1.0
                next_value = self.values[step + 1]
            delta = (
                self.rewards[step]
                + self.gamma * next_value * next_non_terminal
                - self.values[step]
            )
            gae = delta + self.gamma * self.gae_lambda * next_non_terminal * gae
            self.advantages[step] = gae
        self.returns = self.advantages + self.values
        self._finalised = True

    def minibatches(
        self, batch_size: int, rng: SeedLike = None
    ) -> Iterator[Minibatch]:
        """Yield shuffled minibatches covering the whole rollout once."""
        if not self._finalised:
            raise RuntimeError("call compute_returns_and_advantages before minibatches")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        rng = rng_from_seed(rng)
        order = rng.permutation(self.n_steps)
        for start in range(0, self.n_steps, batch_size):
            idx = order[start : start + batch_size]
            yield Minibatch(
                observations=[self.observations[i] for i in idx],
                actions=[self.actions[i] for i in idx],
                old_log_probs=self.log_probs[idx],
                old_values=self.values[idx],
                advantages=self.advantages[idx],
                returns=self.returns[idx],
            )
