"""The reinforcement-learning environment interface.

A deliberately small subset of the OpenAI Gym API (the paper's environment
implements Gym for "easy interoperability with existing libraries"; ours
does the same for the in-repo PPO):

* :meth:`Env.reset` → observation
* :meth:`Env.step` → ``(observation, reward, done, info)``
* :attr:`Env.action_space` / :attr:`Env.observation_space`

A *chained* environment (:attr:`Env.chained`) is one whose timesteps group
into :class:`Chain` objects: runs of sub-steps whose observations depend
only on the chain's own earlier actions, never on another chain's, whose
reward comes on the chain's last sub-step (earlier sub-steps reward 0), and
whose randomness (which chain comes next, episode ends, resets) never
depends on an action.  GDDR's routing environments are chained: a chain is
one demand matrix, one sub-step long in the one-shot environments and
``num_edges`` sub-steps long in the iterative one (paper §VII-B).  Callers
can then plan a whole window before choosing any action:

* :meth:`Env.plan_chain` → ``(chain, done)``: advance up to ``budget``
  timesteps without actions — the rest of the current chain, or, if the
  budget ends first, its next ``budget`` sub-steps, whose partial state
  stays in the environment;
* :func:`act_on_chains`: advance every planned chain in lockstep
  *wavefronts* — wavefront ``i`` is one ``policy.act_batch`` over the
  ``i``-th in-window sub-step of each chain still running;
* :meth:`Env.score_chains` → the rewards of the complete chains, from one
  stacked scoring call for the whole block;
* :meth:`Env.observation`: what the agent acts on next.

:meth:`Env.step` is this protocol at a budget of one timestep, so planning
a window, acting on it in wavefronts and scoring it draws the
environment's randomness and yields the rewards of stepping one timestep
at a time.

Observations and actions are *objects* — fixed-topology environments emit
numpy arrays exactly like Gym, while multi-topology environments emit
:class:`~repro.envs.observation.GraphObservation` records whose size follows
the current graph.  Policies, not the algorithm, decide how to featurize.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Optional, Sequence

import numpy as np

from repro.rl.spaces import Box
from repro.utils.seeding import SeedLike, rng_from_seed


class Env:
    """Base environment.  Subclasses implement ``reset`` and the chain protocol."""

    #: Set by subclasses when the action is a fixed-size array.
    action_space: Optional[Box] = None
    #: Set by subclasses when the observation is a fixed-size array.
    observation_space: Optional[Box] = None

    def reset(self) -> Any:
        """Start a new episode and return the first observation."""
        raise NotImplementedError

    def step(self, action: Any) -> tuple[Any, float, bool, dict]:
        """Advance one timestep: plan it, act on it, score it.

        The chain protocol at a budget of one: :meth:`plan_chain` plans the
        next timestep, ``action`` is taken on it, and :meth:`score_chains`
        rewards it if it completes its chain (an earlier sub-step rewards
        0).  Returns ``(observation, reward, done, {})``; after ``done`` is
        True the caller must ``reset`` before stepping again.  A refused
        action (wrong shape, non-finite entries) raises after its timestep
        was planned, so it consumes the timestep: the next ``step`` acts on
        the timestep after it.  A non-chained environment raises
        ``NotImplementedError``.
        """
        chain, done = self.plan_chain(1)
        chain.act(action)
        reward = float(self.score_chains([chain])[0]) if chain.complete else 0.0
        return self.observation(), reward, done, {}

    #: True when timesteps group into independent chains (see the module
    #: docstring); such environments implement :meth:`plan_chain`,
    #: :meth:`score_chains` and :meth:`observation`.
    chained: bool = False

    def plan_chain(self, budget: int) -> tuple["Chain", bool]:
        """Advance up to ``budget`` timesteps of one chain without actions.

        Returns ``(chain, done)``: the planned :class:`Chain`, and whether
        the episode ended on its last sub-step (only a complete chain can
        end one).  After ``done`` the caller must ``reset`` before planning
        again.  A chain cut by the budget keeps its partial state in the
        environment, which its actions fill in.
        """
        raise NotImplementedError

    def score_chains(self, chains: Sequence["Chain"]) -> np.ndarray:
        """The rewards of complete chains, one entry each, in chain order."""
        raise NotImplementedError

    def observation(self) -> Any:
        """The observation the agent acts on next (chained envs only)."""
        raise NotImplementedError

    def seed(self, seed: SeedLike = None) -> None:
        """Re-seed the environment's internal randomness."""
        self._rng = rng_from_seed(seed)

    def close(self) -> None:
        """Release resources (no-op by default)."""


class Chain:
    """One chain's sub-steps inside a planned window (see the module docstring).

    ``length`` of its sub-steps lie in the window, each taking an action of
    ``action_size`` entries; ``complete`` is True when the window reaches
    its last sub-step, which :meth:`Env.score_chains` rewards.
    """

    length: int
    action_size: int
    complete: bool

    def observation(self) -> Any:
        """The observation before the chain's next sub-step."""
        raise NotImplementedError

    def act(self, action: np.ndarray) -> None:
        """Take the next sub-step with ``action``."""
        raise NotImplementedError


def act_on_chains(
    policy,
    chains: Sequence[Chain],
    rng: np.random.Generator,
    deterministic: bool = False,
    noise: Optional[Sequence[np.ndarray]] = None,
) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Run every chain's in-window sub-steps, in lockstep wavefronts.

    Wavefront ``i`` is one ``policy.act_batch`` over the ``i``-th sub-step
    of every chain at least ``i + 1`` sub-steps long, so the window takes
    as many forwards as its longest chain.  Timesteps are numbered chain by
    chain, sub-step by sub-step; ``noise[t]``, when given, is timestep
    ``t``'s standard-normal draw (see
    :meth:`~repro.policies.base.ActorCriticPolicy.act_batch`).  Returns
    ``(observations, actions, log_probs, values)`` in timestep order.
    """
    lengths = [chain.length for chain in chains]
    starts = [0, *accumulate(lengths)]
    total = starts.pop()
    observations: list = [None] * total
    actions: list = [None] * total
    log_probs, values = np.empty(total), np.empty(total)
    live = list(range(len(chains)))
    for i in range(max(lengths, default=0)):
        live = [k for k in live if lengths[k] > i]
        slots = [starts[k] + i for k in live]
        batch = [chains[k].observation() for k in live]
        draws = None if noise is None else [noise[t] for t in slots]
        chosen, log_probs[slots], values[slots] = policy.act_batch(
            batch, rng, deterministic=deterministic, noise=draws
        )
        for k, t, observation, action in zip(live, slots, batch, chosen):
            chains[k].act(action)
            observations[t], actions[t] = observation, action
    return observations, actions, log_probs, values


class EpisodeStats:
    """Tracks per-episode reward/length across recorded timesteps.

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
