"""Proximal Policy Optimisation (clipped surrogate), PPO2-style.

This is the repository's substitute for the stable-baselines ``PPO2`` the
paper trained with (§VIII-C): same algorithmic ingredients — GAE(λ)
advantages, clipped policy objective, clipped value loss, entropy bonus,
minibatch epochs over each rollout, global gradient-norm clipping, optional
linear learning-rate decay — implemented on :mod:`repro.tensor` and an
object-agnostic rollout buffer, so the one algorithm trains the MLP policy,
the one-shot GNN policy and the iterative GNN policy on any environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.rl.buffer import RolloutBuffer
from repro.rl.env import Env, EpisodeStats, act_on_chains
from repro.tensor import Tensor, maximum, minimum
from repro.tensor.optim import Adam, clip_grad_norm
from repro.utils.logging import RunLogger
from repro.utils.seeding import SeedLike, rng_from_seed


class TrainingDivergedError(RuntimeError):
    """A PPO update produced a non-finite loss or gradient norm."""


@dataclass
class PPOConfig:
    """Hyperparameters (defaults follow stable-baselines PPO2).

    Attributes
    ----------
    n_steps:
        Rollout length per update.
    batch_size:
        Minibatch size inside each epoch.
    n_epochs:
        Optimisation epochs per rollout.
    learning_rate / linear_lr_decay:
        Adam step size, optionally annealed linearly to zero over training.
    gamma / gae_lambda:
        Discount and GAE smoothing.
    clip_range:
        PPO clipping parameter ε.
    value_clip_range:
        Clipping applied to the value-function update (None disables).
    entropy_coef / value_coef:
        Loss weights for the entropy bonus and the value loss.
    max_grad_norm:
        Global gradient-norm clip.
    normalize_advantages:
        Standardise advantages per minibatch.
    """

    n_steps: int = 256
    batch_size: int = 64
    n_epochs: int = 4
    learning_rate: float = 3e-4
    linear_lr_decay: bool = False
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    value_clip_range: Optional[float] = 0.2
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True

    def __post_init__(self):
        if self.n_steps < 1 or self.batch_size < 1 or self.n_epochs < 1:
            raise ValueError("n_steps, batch_size and n_epochs must be >= 1")
        if self.clip_range <= 0.0:
            raise ValueError("clip_range must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


class PPO:
    """The training loop binding a policy to an environment.

    Parameters
    ----------
    policy:
        Any :class:`repro.policies.base.ActorCriticPolicy`.
    env:
        A chained :class:`repro.rl.env.Env`, like every routing env.
        Rollouts run one ``policy.act_batch`` per wavefront of a planned
        window (see :meth:`collect_rollout`); any other env raises
        ``TypeError``.
    config:
        Hyperparameters; defaults are sensible for the GDDR experiments.
    seed:
        Controls action sampling and minibatch shuffling.
    logger:
        Optional :class:`RunLogger`; a fresh silent one is created if
        omitted.  One row is logged per update with the diagnostics the
        experiment harness consumes (``timesteps``, ``mean_episode_reward``,
        losses).
    """

    def __init__(
        self,
        policy,
        env: Env,
        config: Optional[PPOConfig] = None,
        seed: SeedLike = None,
        logger: Optional[RunLogger] = None,
    ):
        if not env.chained:
            raise TypeError(
                f"PPO trains on chained environments (Env.chained); "
                f"{type(env).__name__} is not chained"
            )
        self.policy = policy
        self.env = env
        self.config = config or PPOConfig()
        self.rng = rng_from_seed(seed)
        self.logger = logger or RunLogger()
        self.optimizer = Adam(policy.parameters(), lr=self.config.learning_rate)
        self.stats = EpisodeStats()
        self.num_timesteps = 0
        self._last_observation = None

    # ------------------------------------------------------------------
    # Rollout collection
    # ------------------------------------------------------------------
    def collect_rollout(self, buffer: RolloutBuffer) -> None:
        """Fill ``buffer`` with ``n_steps`` transitions.

        The chained environment (see :mod:`repro.rl.env`) is planned for the
        whole window before any forward: chain after chain, each reset right
        after the plan that ended its episode, so the environment draws its
        randomness in timestep order.  The window's Gaussian noise is then
        drawn in one call, in timestep order, and the chains advance in
        lockstep wavefronts, one forward per in-window sub-step
        (:func:`~repro.rl.env.act_on_chains`): one forward for one-shot
        chains, at most ``num_edges`` for the iterative env.  Every chain the
        window completes is scored by one stacked call, and a chain it cuts
        keeps its partial state in the environment for the next window.  The
        action RNG and the environment's RNG see the draws of stepping one
        timestep at a time (:meth:`~repro.rl.env.Env.step`), and forwards are
        batch-invariant, so the rollout is the same bit for bit.
        """
        buffer.reset()
        env = self.env
        if self._last_observation is None:
            self._last_observation = env.reset()
        chains, dones = [], []
        budget = buffer.n_steps
        while budget:
            chain, done = env.plan_chain(budget)
            if done:
                env.reset()
            chains.append(chain)
            dones.append(done)
            budget -= chain.length
        ends = np.cumsum([chain.action_size for chain in chains for _ in range(chain.length)])
        noise = np.split(self.rng.standard_normal(ends[-1]), ends[:-1])
        observations, actions, log_probs, values = act_on_chains(
            self.policy, chains, self.rng, noise=noise
        )
        rewards = iter(env.score_chains([chain for chain in chains if chain.complete]))
        t = 0
        for chain, done in zip(chains, dones):
            for i in range(chain.length):
                last = chain.complete and i == chain.length - 1
                reward = next(rewards) if last else 0.0
                ended = done and last
                buffer.add(observations[t], actions[t], reward, ended, values[t], log_probs[t])
                self.stats.record(float(reward), ended)
                self.num_timesteps += 1
                t += 1
        self._last_observation = env.observation()
        # Bootstrap from the value of the state after the last stored transition.
        _, _, last_values = self.policy.act_batch(
            [self._last_observation], self.rng, deterministic=True
        )
        buffer.compute_returns_and_advantages(last_values[0], last_done=buffer.dones[-1])

    # ------------------------------------------------------------------
    # Optimisation
    # ------------------------------------------------------------------
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        """Run ``n_epochs`` of clipped-surrogate updates over the rollout."""
        cfg = self.config
        policy_losses, value_losses, entropies, clip_fractions = [], [], [], []
        for _ in range(cfg.n_epochs):
            for batch in buffer.minibatches(cfg.batch_size, rng=self.rng):
                advantages = batch.advantages
                if cfg.normalize_advantages and advantages.size > 1:
                    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

                log_probs, values, entropy = self.policy.evaluate(
                    batch.observations, batch.actions
                )
                ratio = (log_probs - Tensor(batch.old_log_probs)).exp()
                adv_t = Tensor(advantages)
                surrogate = ratio * adv_t
                clipped = ratio.clip(1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * adv_t
                policy_loss = -minimum(surrogate, clipped).mean()

                returns_t = Tensor(batch.returns)
                if cfg.value_clip_range is not None:
                    old_values = Tensor(batch.old_values)
                    values_clipped = old_values + (values - old_values).clip(
                        -cfg.value_clip_range, cfg.value_clip_range
                    )
                    loss_unclipped = (values - returns_t) ** 2
                    loss_clipped = (values_clipped - returns_t) ** 2
                    value_loss = maximum(loss_unclipped, loss_clipped).mean() * 0.5
                else:
                    value_loss = ((values - returns_t) ** 2).mean() * 0.5

                entropy_mean = entropy.mean()
                loss = (
                    policy_loss
                    + value_loss * cfg.value_coef
                    - entropy_mean * cfg.entropy_coef
                )

                self.optimizer.zero_grad()
                loss.backward()
                grad_norm = clip_grad_norm(self.optimizer.parameters, cfg.max_grad_norm)
                # A NaN norm never exceeds the clip, so Adam would write NaN
                # into every parameter; stop before the step instead.
                loss_value = float(loss.numpy())
                if not (np.isfinite(loss_value) and np.isfinite(grad_norm)):
                    raise TrainingDivergedError(
                        f"PPO update diverged (loss {loss_value}, gradient norm "
                        f"{grad_norm}); the parameters keep their last finite values"
                    )
                self.optimizer.step()

                policy_losses.append(float(policy_loss.numpy()))
                value_losses.append(float(value_loss.numpy()))
                entropies.append(float(entropy_mean.numpy()))
                ratio_np = ratio.numpy()
                clip_fractions.append(
                    float(np.mean(np.abs(ratio_np - 1.0) > cfg.clip_range))
                )
        return {
            "policy_loss": float(np.mean(policy_losses)),
            "value_loss": float(np.mean(value_losses)),
            "entropy": float(np.mean(entropies)),
            "clip_fraction": float(np.mean(clip_fractions)),
        }

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def learn(
        self,
        total_timesteps: int,
        callback: Optional[Callable[["PPO", dict], None]] = None,
    ) -> "PPO":
        """Train for ``total_timesteps`` environment steps.

        ``callback(ppo, diagnostics)`` fires after every update; raise
        ``StopIteration`` inside it to end training early.
        """
        if total_timesteps < 1:
            raise ValueError("total_timesteps must be >= 1")
        cfg = self.config
        buffer = RolloutBuffer(cfg.n_steps, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda)
        start_timesteps = self.num_timesteps
        target = start_timesteps + total_timesteps
        while self.num_timesteps < target:
            if cfg.linear_lr_decay:
                progress = (self.num_timesteps - start_timesteps) / total_timesteps
                self.optimizer.set_lr(cfg.learning_rate * max(1.0 - progress, 0.05))
            self.collect_rollout(buffer)
            diagnostics = self.update(buffer)
            diagnostics["timesteps"] = self.num_timesteps
            diagnostics["episodes"] = self.stats.num_episodes
            diagnostics["mean_episode_reward"] = self.stats.recent_mean_reward()
            self.logger.log(**diagnostics)
            if callback is not None:
                try:
                    callback(self, diagnostics)
                except StopIteration:
                    break
        return self
