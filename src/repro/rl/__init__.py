"""Deep reinforcement learning substrate.

The paper trains with PPO2 from stable-baselines on an OpenAI-Gym
environment; this package is the from-scratch substitute:

* :mod:`~repro.rl.spaces` / :mod:`~repro.rl.env` — a minimal Gym-style API
  (``reset``/``step``/``action_space``), with two generalisations GDDR
  needs: observations and actions may be arbitrary Python objects so that
  multi-topology training (variable |V|, |E|) fits the same interface, and
  contextual bandits split ``step`` into ``plan`` and ``score``;
* :mod:`~repro.rl.distributions` — diagonal Gaussian action distribution
  with a shared, state-independent log-standard-deviation (shape-agnostic,
  so one parameter set serves every topology);
* :mod:`~repro.rl.vec_env` — lockstep vectorised environments so one
  batched policy forward serves ``n_envs`` rollouts per timestep (or, for
  contextual bandits, a whole planned rollout);
* :mod:`~repro.rl.buffer` — ``(n_envs, n_steps)`` rollout storage with
  per-environment GAE(λ) advantage estimation;
* :mod:`~repro.rl.ppo` — clipped-surrogate PPO matching the PPO2
  implementation the paper used (minibatch epochs, value clipping, entropy
  bonus, gradient-norm clipping), collecting rollouts over a
  :class:`~repro.rl.vec_env.VecEnv`.
"""

from repro.rl.env import Env
from repro.rl.spaces import Box
from repro.rl.buffer import RolloutBuffer
from repro.rl.ppo import PPO, PPOConfig, TrainingDivergedError
from repro.rl.vec_env import VecEnv, as_vec_env

__all__ = [
    "Env",
    "Box",
    "RolloutBuffer",
    "PPO",
    "PPOConfig",
    "TrainingDivergedError",
    "VecEnv",
    "as_vec_env",
]
