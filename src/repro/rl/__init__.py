"""Deep reinforcement learning substrate.

The paper trains with PPO2 from stable-baselines on an OpenAI-Gym
environment; this package is the from-scratch substitute:

* :mod:`~repro.rl.spaces` / :mod:`~repro.rl.env` — a minimal Gym-style API
  (``reset``/``step``/``action_space``), with two generalisations GDDR
  needs: observations and actions may be arbitrary Python objects so that
  multi-topology training (variable |V|, |E|) fits the same interface, and
  *chained* environments (timesteps grouped into independent chains, one
  per demand matrix in GDDR) can be planned a window at a time;
* :mod:`~repro.rl.distributions` — diagonal Gaussian action distribution
  with a shared, state-independent log-standard-deviation (shape-agnostic,
  so one parameter set serves every topology);
* :mod:`~repro.rl.buffer` — one-trajectory rollout storage with GAE(λ)
  advantage estimation;
* :mod:`~repro.rl.ppo` — clipped-surrogate PPO matching the PPO2
  implementation the paper used (minibatch epochs, value clipping, entropy
  bonus, gradient-norm clipping), collecting rollouts from one environment
  and planning a chained environment's whole rollout window before one
  batched policy forward per wavefront of its chains.
"""

from repro.rl.env import Env
from repro.rl.spaces import Box
from repro.rl.buffer import RolloutBuffer
from repro.rl.ppo import PPO, PPOConfig, TrainingDivergedError

__all__ = [
    "Env",
    "Box",
    "RolloutBuffer",
    "PPO",
    "PPOConfig",
    "TrainingDivergedError",
]
