"""Tests for the vectorized training stack: VecEnv semantics, the
``n_envs=1`` bit-identity pin against a sequential reference collector, and
seeded determinism of multi-env training."""

import numpy as np
import pytest

from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import VecEnv, as_vec_env
from repro.tensor import Tensor
from repro.tensor.optim import Adam
from repro.utils.logging import RunLogger
from test_rl_ppo import TargetEnv, TinyPolicy
from tests.helpers import reference_act


class ScriptedEnv(Env):
    """Episodes of fixed length; observations encode (episode, step)."""

    def __init__(self, horizon: int = 3):
        self.horizon = horizon
        self.episode = -1
        self._t = 0
        self.action_space = Box(-1.0, 1.0, (1,))
        self.observation_space = Box(0.0, np.inf, (2,))

    def reset(self):
        self.episode += 1
        self._t = 0
        return np.array([float(self.episode), 0.0])

    def step(self, action):
        self._t += 1
        done = self._t >= self.horizon
        return np.array([float(self.episode), float(self._t)]), 1.0, done, {}


class TestVecEnv:
    def test_lockstep_step_shapes(self):
        vec = VecEnv([ScriptedEnv(), ScriptedEnv()])
        observations = vec.reset()
        assert len(observations) == 2
        observations, rewards, dones, infos = vec.step([np.zeros(1), np.zeros(1)])
        assert rewards.shape == (2,) and rewards.dtype == np.float64
        assert dones.shape == (2,) and dones.dtype == bool
        assert len(observations) == len(infos) == 2

    def test_auto_reset_exposes_terminal_observation(self):
        vec = VecEnv([ScriptedEnv(horizon=1), ScriptedEnv(horizon=2)])
        vec.reset()
        observations, _, dones, infos = vec.step([np.zeros(1)] * 2)
        # Env 0 finished: its slot holds the post-reset observation and the
        # terminal observation moves into the info dict.  Env 1 continues.
        assert dones.tolist() == [True, False]
        np.testing.assert_array_equal(observations[0], [1.0, 0.0])
        np.testing.assert_array_equal(infos[0]["terminal_observation"], [0.0, 1.0])
        assert "terminal_observation" not in infos[1]

    def test_step_width_validated(self):
        vec = VecEnv([ScriptedEnv(), ScriptedEnv()])
        vec.reset()
        with pytest.raises(ValueError, match="2"):
            vec.step([np.zeros(1)])

    def test_requires_member_envs(self):
        with pytest.raises(ValueError):
            VecEnv([])

    def test_seed_fans_out(self):
        envs = [TargetEnv(), TargetEnv()]
        vec = VecEnv(envs)
        vec.seed([1, 2])  # TargetEnv has no seed method: must be a no-op
        assert len(vec) == vec.num_envs == 2

    def test_as_vec_env(self):
        env = ScriptedEnv()
        vec = as_vec_env(env)
        assert isinstance(vec, VecEnv) and vec.num_envs == 1
        assert as_vec_env(vec) is vec


class SequentialReferencePPO(PPO):
    """The pre-vectorisation collection loop: one ``reference_act`` per step.

    This replicates the sequential implementation the VecEnv refactor
    replaced; :class:`TestVectorisedTraining` pins ``n_envs=1`` training to
    it bit for bit.
    """

    def collect_rollout(self, buffer):
        buffer.reset()
        if self._last_observations is None:
            self._last_observations = [self.env.reset()]
        observation = self._last_observations[0]
        while not buffer.full:
            action, log_prob, value = reference_act(self.policy, observation, self.rng)
            next_observation, reward, done, _ = self.env.step(action)
            if done:
                next_observation = self.env.reset()
            buffer.add(observation, action, reward, done, value, log_prob)
            self.stats.record(reward, done)
            self.num_timesteps += 1
            observation = next_observation
        self._last_observations = [observation]
        _, _, last_value = reference_act(self.policy, observation, self.rng, deterministic=True)
        buffer.compute_returns_and_advantages(last_value, bool(buffer.dones[0, -1]))


def _train(ppo_cls, n_envs, policy_seed, train_seed, total_timesteps=48):
    policy = TinyPolicy(seed=policy_seed)
    if n_envs == 1:
        env = TargetEnv()
    else:
        env = VecEnv([TargetEnv() for _ in range(n_envs)])
    logger = RunLogger()
    cfg = PPOConfig(n_steps=16, batch_size=8, n_epochs=2)
    ppo_cls(policy, env, cfg, seed=train_seed, logger=logger).learn(total_timesteps)
    return [p.data.copy() for p in policy.parameters()], logger


class TestVectorisedTraining:
    def test_single_env_bit_identical_to_sequential_reference(self):
        # The headline refactor guarantee: n_envs=1 reproduces the
        # pre-VecEnv sequential training loop exactly, bit for bit.
        vec_params, vec_log = _train(PPO, 1, policy_seed=3, train_seed=5)
        ref_params, ref_log = _train(SequentialReferencePPO, 1, policy_seed=3, train_seed=5)
        assert len(vec_params) == len(ref_params)
        for v, r in zip(vec_params, ref_params):
            np.testing.assert_array_equal(v, r)
        assert vec_log.column("mean_episode_reward") == ref_log.column("mean_episode_reward")

    def test_multi_env_training_is_seeded_deterministic(self):
        a, _ = _train(PPO, 4, policy_seed=3, train_seed=5, total_timesteps=64)
        b, _ = _train(PPO, 4, policy_seed=3, train_seed=5, total_timesteps=64)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_timesteps_count_env_steps(self):
        policy = TinyPolicy()
        vec = VecEnv([TargetEnv() for _ in range(4)])
        ppo = PPO(policy, vec, PPOConfig(n_steps=8, batch_size=8, n_epochs=1))
        ppo.learn(32)
        assert ppo.num_timesteps == 32  # one rollout: 4 envs x 8 steps

    def test_episode_stats_track_each_env(self):
        vec = VecEnv([TargetEnv(horizon=4) for _ in range(2)])
        ppo = PPO(TinyPolicy(), vec, PPOConfig(n_steps=8, batch_size=8, n_epochs=1))
        ppo.learn(16)
        assert ppo.stats.num_episodes == 4  # 2 envs x (8 steps / 4 per episode)


class TestInPlaceOptimizer:
    def test_adam_updates_parameter_arrays_in_place(self):
        params = [Tensor(np.ones(3), requires_grad=True) for _ in range(2)]
        optimizer = Adam(params, lr=0.1)
        arrays = [p.data for p in params]
        for _ in range(3):
            for p in params:
                p.grad = np.full(3, 0.5)
            optimizer.step()
        for p, original in zip(params, arrays):
            assert p.data is original  # no reallocation across steps
        assert not np.array_equal(params[0].data, np.ones(3))

    def test_policy_parameter_identity_stable_across_ppo_updates(self):
        policy = TinyPolicy(seed=0)
        identities = [id(p.data) for p in policy.parameters()]
        PPO(policy, TargetEnv(), PPOConfig(n_steps=16, batch_size=8, n_epochs=2)).learn(32)
        assert [id(p.data) for p in policy.parameters()] == identities
