"""Lockstep vectorised environments for batched PPO rollouts.

:class:`VecEnv` steps ``n_envs`` independent environments in lockstep so the
policy can run **one** batched forward per timestep instead of one forward
per environment — the GNN policies stack all current observations into a
single :class:`~repro.gnn.graphs_tuple.GraphsTuple` and amortise the whole
per-call Python/autograd overhead across the batch.

Semantics mirror the classic SubprocVecEnv/DummyVecEnv contract from
stable-baselines (synchronously, in-process):

* :meth:`VecEnv.reset` resets every member and returns the list of first
  observations;
* :meth:`VecEnv.step` applies one action per member and **auto-resets** any
  environment that finished its episode, returning the *post-reset*
  observation in its slot (the pre-reset terminal observation is available
  under ``info["terminal_observation"]``).

Auto-reset consumes each member's RNG in exactly the order the sequential
PPO loop did (step, then reset-on-done, env by env), so a ``VecEnv`` of one
environment reproduces the unbatched rollout stream bit-for-bit.

When every member is a contextual bandit
(:attr:`~repro.rl.env.Env.contextual_bandit`), :meth:`VecEnv.plan` and
:meth:`VecEnv.score` split that step in two.  ``plan`` advances and
auto-resets every member exactly as ``step`` would — same RNG draws, same
order — without needing the actions, so PPO can plan a whole rollout before
choosing any of them.

Environments are stepped sequentially in slot order — the wins come from
batching the *policy* forward and sharing reward caches, not from
parallelising the (already cache-hot) environment dynamics.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.rl.env import Env


class VecEnv:
    """A fixed set of environments advancing in lockstep.

    Parameters
    ----------
    envs:
        The member environments.  They are stepped in the given order; slot
        0 is the "primary" environment (seed-compatibility anchor for the
        ``n_envs=1`` case).
    """

    def __init__(self, envs: Sequence[Env]):
        envs = list(envs)
        if not envs:
            raise ValueError("VecEnv needs at least one environment")
        self.envs = envs
        self.num_envs = len(envs)
        #: Whether :meth:`plan` / :meth:`score` are available.
        self.contextual_bandit = all(env.contextual_bandit for env in envs)

    # ------------------------------------------------------------------
    def reset(self) -> list[Any]:
        """Reset every member; returns one first observation per slot."""
        return [env.reset() for env in self.envs]

    def step(self, actions: Sequence[Any]) -> tuple[list[Any], np.ndarray, np.ndarray, list[dict]]:
        """Advance every member one timestep.

        Parameters
        ----------
        actions:
            One action per environment, in slot order.

        Returns
        -------
        ``(observations, rewards, dones, infos)`` where ``rewards`` is a
        float64 ``(num_envs,)`` array, ``dones`` a bool array flagging
        episodes that *ended on this step* (their slot already holds the
        next episode's first observation), and ``infos`` the per-env info
        dicts (with ``info["terminal_observation"]`` set on done slots).
        """
        if len(actions) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} actions, got {len(actions)}")
        observations: list[Any] = []
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: list[dict] = []
        for i, (env, action) in enumerate(zip(self.envs, actions)):
            observation, reward, done, info = env.step(action)
            if done:
                info = dict(info)
                info["terminal_observation"] = observation
                observation = env.reset()
            observations.append(observation)
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
        return observations, rewards, dones, infos

    def plan(self) -> tuple[list[Any], list[Any], np.ndarray]:
        """Advance every member one timestep without actions.

        Contextual-bandit members only.  Returns ``(contexts, observations,
        dones)``: one context per slot for :meth:`score`, then the
        observations and done flags :meth:`step` would have returned
        (auto-reset included).
        """
        if not self.contextual_bandit:
            raise TypeError("plan() needs every member to be a contextual bandit")
        contexts: list[Any] = []
        observations: list[Any] = []
        dones = np.zeros(self.num_envs, dtype=bool)
        for i, env in enumerate(self.envs):
            context, observation, done = env.plan()
            if done:
                observation = env.reset()
            contexts.append(context)
            observations.append(observation)
            dones[i] = done
        return contexts, observations, dones

    def score(self, contexts: Sequence[Any], actions: Sequence[Any]) -> np.ndarray:
        """Rewards of one planned timestep: slot ``i``'s action in its context."""
        if len(contexts) != self.num_envs or len(actions) != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} contexts and actions, "
                f"got {len(contexts)} and {len(actions)}"
            )
        return np.array(
            [
                env.score(context, action)[0]
                for env, context, action in zip(self.envs, contexts, actions)
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    def seed(self, seeds: Sequence[Any]) -> None:
        """Re-seed every member (one seed per slot)."""
        if len(seeds) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} seeds, got {len(seeds)}")
        for env, seed in zip(self.envs, seeds):
            env.seed(seed)

    def close(self) -> None:
        for env in self.envs:
            env.close()

    def __len__(self) -> int:
        return self.num_envs


def as_vec_env(env: Env | VecEnv) -> VecEnv:
    """Wrap a bare :class:`Env` into a single-member :class:`VecEnv`."""
    return env if isinstance(env, VecEnv) else VecEnv([env])
