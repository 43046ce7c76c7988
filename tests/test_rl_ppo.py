"""Tests for the PPO algorithm: mechanics plus a learnability check on a
synthetic environment with a known optimal action."""

import numpy as np
import pytest

from repro.policies.base import ActorCriticPolicy
from repro.rl.distributions import DiagonalGaussian
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig, TrainingDivergedError
from repro.rl.spaces import Box
from repro.tensor import Tensor
from repro.tensor.nn import MLP
from repro.utils.logging import RunLogger
from tests.helpers import reference_act


class TargetEnv(Env):
    """Reward = -(action - target)^2; optimal mean action = target.

    Observation is a constant vector; episodes last ``horizon`` steps.
    """

    def __init__(self, target: float = 0.5, horizon: int = 8):
        self.target = target
        self.horizon = horizon
        self._t = 0
        self.action_space = Box(-1.0, 1.0, (1,))
        self.observation_space = Box(0.0, 1.0, (2,))

    def reset(self):
        self._t = 0
        return np.array([1.0, 0.0])

    def step(self, action):
        self._t += 1
        reward = -float((np.asarray(action)[0] - self.target) ** 2)
        done = self._t >= self.horizon
        return np.array([1.0, 0.0]), reward, done, {}


class TinyPolicy(ActorCriticPolicy):
    """Minimal MLP actor-critic over flat observations for PPO tests."""

    def __init__(self, obs_dim=2, action_dim=1, seed=0):
        rng = np.random.default_rng(seed)
        self.action_dim = action_dim
        self.pi = MLP([obs_dim, 16, action_dim], rng, activation="tanh")
        self.vf = MLP([obs_dim, 16, 1], rng, activation="tanh")
        self.distribution = DiagonalGaussian(initial_log_std=-0.5)

    def _flat(self, observation):
        return np.asarray(observation, dtype=np.float64)

    def _forward_batch(self, observations):
        x = Tensor(np.stack([self._flat(obs) for obs in observations]))
        means = self.pi(x).reshape((-1,))
        values = self.vf(x).reshape((-1,))
        return means, values, np.repeat(np.arange(len(observations)), self.action_dim)


class NaNValuePolicy(TinyPolicy):
    """A diverged critic: the value head returns NaN for every observation."""

    def _forward_batch(self, observations):
        means, values, segments = super()._forward_batch(observations)
        return means, values * float("nan"), segments


class TestPPOMechanics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PPOConfig(n_steps=0)
        with pytest.raises(ValueError):
            PPOConfig(clip_range=0.0)
        with pytest.raises(ValueError):
            PPOConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            PPO(TinyPolicy(), TargetEnv()).learn(0)

    def test_timesteps_accumulate(self):
        ppo = PPO(TinyPolicy(), TargetEnv(), PPOConfig(n_steps=16, batch_size=8, n_epochs=1))
        ppo.learn(32)
        assert ppo.num_timesteps == 32
        ppo.learn(16)
        assert ppo.num_timesteps == 48

    def test_logger_rows_per_update(self):
        logger = RunLogger()
        ppo = PPO(
            TinyPolicy(),
            TargetEnv(),
            PPOConfig(n_steps=16, batch_size=8, n_epochs=1),
            logger=logger,
        )
        ppo.learn(48)
        assert len(logger.rows) == 3
        assert logger.column("timesteps") == [16, 32, 48]
        for key in ("policy_loss", "value_loss", "entropy", "clip_fraction"):
            assert key in logger.rows[0]

    def test_callback_receives_diagnostics_and_can_stop(self):
        calls = []

        def callback(ppo, diagnostics):
            calls.append(diagnostics["timesteps"])
            raise StopIteration

        ppo = PPO(TinyPolicy(), TargetEnv(), PPOConfig(n_steps=16, batch_size=8, n_epochs=1))
        ppo.learn(160, callback=callback)
        assert calls == [16]
        assert ppo.num_timesteps == 16

    def test_episode_stats_recorded(self):
        ppo = PPO(TinyPolicy(), TargetEnv(horizon=4), PPOConfig(n_steps=16, batch_size=8, n_epochs=1))
        ppo.learn(16)
        assert ppo.stats.num_episodes == 4

    def test_deterministic_given_seed(self):
        def run():
            ppo = PPO(
                TinyPolicy(seed=3),
                TargetEnv(),
                PPOConfig(n_steps=16, batch_size=8, n_epochs=2),
                seed=5,
            )
            ppo.learn(32)
            return [p.data.copy() for p in ppo.policy.parameters()]

        a, b = run(), run()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_linear_lr_decay(self):
        cfg = PPOConfig(n_steps=16, batch_size=8, n_epochs=1, learning_rate=1e-3, linear_lr_decay=True)
        ppo = PPO(TinyPolicy(), TargetEnv(), cfg)
        ppo.learn(64)
        assert ppo.optimizer.lr < 1e-3

    def test_updates_change_parameters(self):
        policy = TinyPolicy()
        before = [p.data.copy() for p in policy.parameters()]
        PPO(policy, TargetEnv(), PPOConfig(n_steps=16, batch_size=8, n_epochs=2)).learn(16)
        changed = any(
            not np.array_equal(b, p.data) for b, p in zip(before, policy.parameters())
        )
        assert changed

    def test_non_finite_update_raises_before_the_optimizer_step(self):
        # clip_grad_norm's `total > max_norm` is False for a NaN norm, so
        # without the check Adam writes NaN into every parameter silently.
        policy = NaNValuePolicy()
        before = [p.data.copy() for p in policy.parameters()]
        ppo = PPO(policy, TargetEnv(), PPOConfig(n_steps=16, batch_size=8, n_epochs=1))
        with pytest.raises(TrainingDivergedError, match="diverged"):
            ppo.learn(16)
        for old, param in zip(before, policy.parameters()):
            np.testing.assert_array_equal(param.data, old)


class TestPPOLearnability:
    def test_learns_constant_target_action(self):
        env = TargetEnv(target=0.5, horizon=8)
        policy = TinyPolicy(seed=1)
        cfg = PPOConfig(
            n_steps=64, batch_size=32, n_epochs=6, learning_rate=3e-3, entropy_coef=0.0
        )
        ppo = PPO(policy, env, cfg, seed=2)
        ppo.learn(2048)
        mean_action, _, _ = reference_act(
            policy, env.reset(), np.random.default_rng(0), deterministic=True
        )
        assert mean_action[0] == pytest.approx(0.5, abs=0.15)

    def test_value_function_learns_return(self):
        env = TargetEnv(target=0.0, horizon=4)
        policy = TinyPolicy(seed=4)
        cfg = PPOConfig(n_steps=64, batch_size=32, n_epochs=6, learning_rate=3e-3)
        ppo = PPO(policy, env, cfg, seed=3)
        ppo.learn(1024)
        # Near-converged policy: per-step reward ~0 so value should be small in magnitude.
        _, _, value = reference_act(
            policy, env.reset(), np.random.default_rng(0), deterministic=True
        )
        assert abs(value) < 1.0
