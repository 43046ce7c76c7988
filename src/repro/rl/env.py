"""The reinforcement-learning environment interface.

A deliberately small subset of the OpenAI Gym API (the paper's environment
implements Gym for "easy interoperability with existing libraries"; ours
does the same for the in-repo PPO):

* :meth:`Env.reset` → observation
* :meth:`Env.step` → ``(observation, reward, done, info)``
* :attr:`Env.action_space` / :attr:`Env.observation_space`

A *contextual bandit* (:attr:`Env.contextual_bandit`) is an environment
whose actions decide the reward but never the next observation.  It splits
``step`` in two, so callers can draw many observations before choosing any
action:

* :meth:`Env.plan` → ``(context, observation, done)``: advance one
  timestep without an action; ``context`` is what scoring needs;
* :meth:`Env.score` → ``(reward, info)``: the reward of ``action`` in a
  planned ``context``.

``step(action)`` then equals ``score`` on the current context followed by
``plan``.

Observations and actions are *objects* — fixed-topology environments emit
numpy arrays exactly like Gym, while multi-topology environments emit
:class:`~repro.envs.observation.GraphObservation` records whose size follows
the current graph.  Policies, not the algorithm, decide how to featurize.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.rl.spaces import Box
from repro.utils.seeding import SeedLike, rng_from_seed


class Env:
    """Base environment.  Subclasses implement ``reset`` and ``step``."""

    #: Set by subclasses when the action is a fixed-size array.
    action_space: Optional[Box] = None
    #: Set by subclasses when the observation is a fixed-size array.
    observation_space: Optional[Box] = None

    def reset(self) -> Any:
        """Start a new episode and return the first observation."""
        raise NotImplementedError

    def step(self, action: Any) -> tuple[Any, float, bool, dict]:
        """Advance one timestep.

        Returns ``(observation, reward, done, info)``; after ``done`` is
        True the caller must ``reset`` before stepping again.
        """
        raise NotImplementedError

    #: True when actions never influence the next observation; such
    #: environments implement :meth:`plan` and :meth:`score`.
    contextual_bandit: bool = False

    def plan(self) -> tuple[Any, Any, bool]:
        """Advance one timestep without an action (contextual bandits only).

        Returns ``(context, observation, done)``: the context to
        :meth:`score` this timestep's action in, then exactly what ``step``
        would have returned as observation and done flag.
        """
        raise NotImplementedError

    def score(self, context: Any, action: Any) -> tuple[float, dict]:
        """``(reward, info)`` of ``action`` in a context from :meth:`plan`."""
        raise NotImplementedError

    def seed(self, seed: SeedLike = None) -> None:
        """Re-seed the environment's internal randomness."""
        self._rng = rng_from_seed(seed)

    def close(self) -> None:
        """Release resources (no-op by default)."""


class EpisodeStats:
    """Tracks per-episode reward/length across ``step`` calls.

    PPO uses this to produce the learning curves of the paper's Figure 7
    (mean total reward per episode over training).
    """

    def __init__(self):
        self.episode_rewards: list[float] = []
        self.episode_lengths: list[int] = []
        self._current_reward = 0.0
        self._current_length = 0

    def record(self, reward: float, done: bool) -> None:
        self._current_reward += reward
        self._current_length += 1
        if done:
            self.episode_rewards.append(self._current_reward)
            self.episode_lengths.append(self._current_length)
            self._current_reward = 0.0
            self._current_length = 0

    @property
    def num_episodes(self) -> int:
        return len(self.episode_rewards)

    def recent_mean_reward(self, window: int = 10) -> float:
        """Mean total reward over the last ``window`` completed episodes."""
        if not self.episode_rewards:
            return float("nan")
        tail = self.episode_rewards[-window:]
        return float(sum(tail) / len(tail))
