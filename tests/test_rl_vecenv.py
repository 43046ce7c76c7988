"""Tests for the vectorized training stack: VecEnv semantics, the
``n_envs=1`` bit-identity pin against a sequential reference collector,
seeded determinism of multi-env training, and the RNG stream of planned
one-shot rollouts."""

import numpy as np
import pytest

from repro.envs import MultiGraphRoutingEnv, RoutingEnv
from repro.graphs import abilene, random_connected_network
from repro.policies import GNNPolicy
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import VecEnv, as_vec_env
from repro.tensor import Tensor
from repro.tensor.optim import Adam
from repro.traffic import cyclical_sequence
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
    replaced, slot by slot over lockstep members: act on every slot's
    observation, then step each member and reset it when its episode ends.
    :class:`TestVectorisedTraining` pins ``n_envs=1`` training on generic
    envs to it bit for bit, and :class:`TestPlannedRollouts` PPO's planned
    one-shot rollouts.
    """

    def collect_rollout(self, buffer):
        buffer.reset()
        envs = self.vec_env.envs
        if self._last_observations is None:
            self._last_observations = [env.reset() for env in envs]
        observations = self._last_observations
        while not buffer.full:
            actions, log_probs, values = zip(
                *(reference_act(self.policy, o, self.rng) for o in observations)
            )
            next_observations, rewards, dones = [], [], []
            for env, action in zip(envs, actions):
                next_observation, reward, done, _ = env.step(action)
                if done:
                    next_observation = env.reset()
                next_observations.append(next_observation)
                rewards.append(reward)
                dones.append(done)
            buffer.add_batch(
                observations,
                actions,
                np.array(rewards),
                np.array(dones, dtype=bool),
                np.array(values),
                np.array(log_probs),
            )
            for i, (reward, done) in enumerate(zip(rewards, dones)):
                self.stats.record(reward, done, i)
            self.num_timesteps += len(envs)
            observations = next_observations
        self._last_observations = observations
        last_values = [
            reference_act(self.policy, o, self.rng, deterministic=True)[2] for o in observations
        ]
        buffer.compute_returns_and_advantages(np.array(last_values), buffer.dones[:, -1])


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


class _RecordingRollouts:
    """Keeps every collected rollout's observations, dones and rewards."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rollouts = []

    def collect_rollout(self, buffer):
        super().collect_rollout(buffer)
        observations = [list(column) for column in buffer.observations]
        self.rollouts.append((observations, buffer.dones.copy(), buffer.rewards.copy()))


class RecordingPPO(_RecordingRollouts, PPO):
    pass


class RecordingReferencePPO(_RecordingRollouts, SequentialReferencePPO):
    pass


def _one_shot_env(kind, slot):
    net = abilene()
    sequences = [cyclical_sequence(net.num_nodes, 6, 3, seed=i) for i in range(3)]
    if kind == "routing":
        return RoutingEnv(net, sequences, memory_length=3, seed=11 + slot)
    other = random_connected_network(9, 5, seed=2)
    pairs = [
        (net, sequences),
        (other, [cyclical_sequence(other.num_nodes, 6, 3, seed=4 + i) for i in range(2)]),
    ]
    return MultiGraphRoutingEnv(pairs, memory_length=3, seed=11 + slot)


def _env_rngs(env):
    members = env.inner_envs if isinstance(env, MultiGraphRoutingEnv) else []
    return [e._rng.bit_generator.state for e in [env, *members]]


def _planned_training(ppo_cls, kind, n_envs):
    vec = VecEnv([_one_shot_env(kind, slot) for slot in range(n_envs)])
    policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=3)
    ppo = ppo_cls(policy, vec, PPOConfig(n_steps=8, batch_size=8, n_epochs=2), seed=5)
    ppo.learn(3 * 8 * n_envs)
    return ppo


class TestPlannedRollouts:
    """One-shot envs plan a rollout before one forward: same RNG streams, and
    (policy forwards being batch-invariant) the same training, bit for bit."""

    @pytest.mark.parametrize("kind,n_envs", [("routing", 1), ("routing", 3), ("multigraph", 2)])
    def test_matches_stepping_reference(self, kind, n_envs):
        planned = _planned_training(RecordingPPO, kind, n_envs)
        stepped = _planned_training(RecordingReferencePPO, kind, n_envs)
        assert planned.vec_env.contextual_bandit
        assert len(planned.rollouts) == len(stepped.rollouts) == 3
        for (obs_a, dones_a, rewards_a), (obs_b, dones_b, rewards_b) in zip(
            planned.rollouts, stepped.rollouts
        ):
            np.testing.assert_array_equal(dones_a, dones_b)
            np.testing.assert_array_equal(rewards_a, rewards_b)
            for column_a, column_b in zip(obs_a, obs_b):
                for a, b in zip(column_a, column_b):
                    assert a.network.edges == b.network.edges
                    np.testing.assert_array_equal(a.history, b.history)
        assert planned.stats.episode_lengths == stepped.stats.episode_lengths
        assert planned.stats.episode_rewards == stepped.stats.episode_rewards
        assert planned.stats.num_episodes > n_envs  # auto-resets drew sequences
        for env_a, env_b in zip(planned.vec_env.envs, stepped.vec_env.envs):
            assert _env_rngs(env_a) == _env_rngs(env_b)
        assert planned.rng.bit_generator.state == stepped.rng.bit_generator.state
        for a, b in zip(planned.policy.parameters(), stepped.policy.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_one_forward_per_rollout(self, monkeypatch):
        batch_sizes = []
        original = GNNPolicy.act_batch

        def counting(policy, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return original(policy, observations, *args, **kwargs)

        monkeypatch.setattr(GNNPolicy, "act_batch", counting)
        _planned_training(RecordingPPO, "routing", 3)
        # Per rollout: 8 steps x 3 envs in one forward, then the bootstrap.
        assert batch_sizes == [24, 3] * 3

    def test_generic_envs_are_not_planned(self):
        vec = VecEnv([TargetEnv(), ScriptedEnv()])
        assert not vec.contextual_bandit
        with pytest.raises(TypeError, match="contextual bandit"):
            vec.plan()
