"""Tests for the PPO algorithm: mechanics, a learnability check on a
synthetic environment with a known optimal action, bit-identity with a
step-by-step reference collector, and the RNG streams of planned rollouts
(one-shot and iterative, wavefronts and block scoring)."""

import re

import numpy as np
import pytest

from repro.envs import IterativeRoutingEnv, MultiGraphRoutingEnv, RoutingEnv
from repro.graphs import abilene, random_connected_network
from repro.policies import GNNPolicy, IterativeGNNPolicy
from repro.policies.base import ActorCriticPolicy
from repro.rl.distributions import DiagonalGaussian
from repro.rl.env import Chain, Env
from repro.rl.ppo import PPO, PPOConfig, TrainingDivergedError
from repro.rl.spaces import Box
from repro.tensor import Tensor
from repro.tensor.nn import MLP
from repro.tensor.optim import Adam
from repro.traffic import cyclical_sequence
from repro.utils.logging import RunLogger
from tests.helpers import reference_act


class TargetChain(Chain):
    """One :class:`TargetEnv` timestep."""

    length = 1
    action_size = 1
    complete = True

    def observation(self):
        return np.array([1.0, 0.0])

    def act(self, action):
        self.action = action


class TargetEnv(Env):
    """Reward = -(action - target)^2; optimal mean action = target.

    Observation is a constant vector; episodes last ``horizon`` steps, each
    a one-step chain.
    """

    chained = True

    def __init__(self, target: float = 0.5, horizon: int = 8):
        self.target = target
        self.horizon = horizon
        self._t = 0
        self.action_space = Box(-1.0, 1.0, (1,))
        self.observation_space = Box(0.0, 1.0, (2,))

    def reset(self):
        self._t = 0
        return self.observation()

    def observation(self):
        return np.array([1.0, 0.0])

    def plan_chain(self, budget):
        self._t += 1
        return TargetChain(), self._t >= self.horizon

    def score_chains(self, chains):
        return np.array(
            [-float((np.asarray(chain.action)[0] - self.target) ** 2) for chain in chains]
        )


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

    def test_refuses_a_non_chained_env(self):
        with pytest.raises(TypeError, match=re.escape("Env.chained")):
            PPO(TinyPolicy(), Env())

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


class SequentialReferencePPO(PPO):
    """The step-by-step collection loop: one ``reference_act`` per step.

    Act on the current observation, step the environment and reset it when
    its episode ends.  :class:`TestSequentialReference` pins PPO's training
    on a generic env to it bit for bit, and :class:`TestPlannedRollouts`
    PPO's planned rollouts of the routing envs.
    """

    def collect_rollout(self, buffer):
        buffer.reset()
        env = self.env
        if self._last_observation is None:
            self._last_observation = env.reset()
        observation = self._last_observation
        while not buffer.full:
            action, log_prob, value = reference_act(self.policy, observation, self.rng)
            next_observation, reward, done, _ = env.step(action)
            if done:
                next_observation = env.reset()
            buffer.add(observation, action, reward, done, value, log_prob)
            self.stats.record(reward, done)
            self.num_timesteps += 1
            observation = next_observation
        self._last_observation = observation
        last_value = reference_act(self.policy, observation, self.rng, deterministic=True)[2]
        buffer.compute_returns_and_advantages(last_value, buffer.dones[-1])


def _train(ppo_cls, policy_seed, train_seed, total_timesteps=48):
    policy = TinyPolicy(seed=policy_seed)
    logger = RunLogger()
    cfg = PPOConfig(n_steps=16, batch_size=8, n_epochs=2)
    ppo_cls(policy, TargetEnv(), cfg, seed=train_seed, logger=logger).learn(total_timesteps)
    return [p.data.copy() for p in policy.parameters()], logger


class TestSequentialReference:
    def test_training_bit_identical_to_sequential_reference(self):
        params, log = _train(PPO, policy_seed=3, train_seed=5)
        ref_params, ref_log = _train(SequentialReferencePPO, policy_seed=3, train_seed=5)
        assert len(params) == len(ref_params)
        for v, r in zip(params, ref_params):
            np.testing.assert_array_equal(v, r)
        assert log.column("mean_episode_reward") == ref_log.column("mean_episode_reward")


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
        self.rollouts.append(
            (list(buffer.observations), buffer.dones.copy(), buffer.rewards.copy())
        )


class RecordingPPO(_RecordingRollouts, PPO):
    pass


class RecordingReferencePPO(_RecordingRollouts, SequentialReferencePPO):
    pass


#: n_steps per planned-rollout case.  Iterative episodes here are two DMs of
#: Abilene's 28 sub-steps each (or of the other topology's), so 40-step
#: windows cut chains mid-DM at every boundary and end episodes inside
#: windows.
_N_STEPS = {"routing": 8, "multigraph": 8, "iterative": 40, "multigraph-iterative": 40}


def _routing_env(kind):
    iterative = kind.endswith("iterative")
    length = 5 if iterative else 6
    net = abilene()
    sequences = [cyclical_sequence(net.num_nodes, length, 3, seed=i) for i in range(3)]
    if kind == "routing":
        return RoutingEnv(net, sequences, memory_length=3, seed=11)
    if kind == "iterative":
        return IterativeRoutingEnv(net, sequences, memory_length=3, seed=11)
    other = random_connected_network(9, 5, seed=2)
    pairs = [
        (net, sequences),
        (other, [cyclical_sequence(other.num_nodes, length, 3, seed=4 + i) for i in range(2)]),
    ]
    return MultiGraphRoutingEnv(pairs, iterative=iterative, memory_length=3, seed=11)


def _env_rngs(env):
    members = env.inner_envs if isinstance(env, MultiGraphRoutingEnv) else []
    return [e._rng.bit_generator.state for e in [env, *members]]


def _planned_training(ppo_cls, kind):
    env = _routing_env(kind)
    policy_cls = IterativeGNNPolicy if kind.endswith("iterative") else GNNPolicy
    policy = policy_cls(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=3)
    n_steps = _N_STEPS[kind]
    ppo = ppo_cls(policy, env, PPOConfig(n_steps=n_steps, batch_size=8, n_epochs=2), seed=5)
    ppo.learn(3 * n_steps)
    return ppo


class TestPlannedRollouts:
    """Routing envs plan a rollout window as chains, advance them in
    wavefronts and score them in one call: same RNG streams, and (policy
    forwards being batch-invariant, the block scorer exact) the same
    training, bit for bit."""

    @pytest.mark.parametrize("kind", list(_N_STEPS))
    def test_matches_stepping_reference(self, kind):
        planned = _planned_training(RecordingPPO, kind)
        stepped = _planned_training(RecordingReferencePPO, kind)
        assert planned.env.chained
        assert len(planned.rollouts) == len(stepped.rollouts) == 3
        for (obs_a, dones_a, rewards_a), (obs_b, dones_b, rewards_b) in zip(
            planned.rollouts, stepped.rollouts
        ):
            np.testing.assert_array_equal(dones_a, dones_b)
            np.testing.assert_array_equal(rewards_a, rewards_b)
            for a, b in zip(obs_a, obs_b):
                assert a.network.edges == b.network.edges
                np.testing.assert_array_equal(a.history, b.history)
                if a.edge_state is None:
                    assert b.edge_state is None
                else:
                    np.testing.assert_array_equal(a.edge_state, b.edge_state)
        assert planned.stats.episode_lengths == stepped.stats.episode_lengths
        assert planned.stats.episode_rewards == stepped.stats.episode_rewards
        assert planned.stats.num_episodes > 1  # auto-resets drew sequences
        assert _env_rngs(planned.env) == _env_rngs(stepped.env)
        assert planned.rng.bit_generator.state == stepped.rng.bit_generator.state
        for a, b in zip(planned.policy.parameters(), stepped.policy.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_iterative_windows_cut_chains_and_end_episodes(self):
        # The pins above only bite if the windows really cut a DM's chain
        # and an episode ends inside one.
        ppo = _planned_training(RecordingPPO, "iterative")
        for _, dones, rewards in ppo.rollouts:
            assert rewards[-1] == 0.0  # the last chain is cut mid-DM
        assert any(dones[:-1].any() for _, dones, _ in ppo.rollouts)

    def test_one_forward_per_rollout(self, monkeypatch):
        batch_sizes = []
        original = GNNPolicy.act_batch

        def counting(policy, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return original(policy, observations, *args, **kwargs)

        monkeypatch.setattr(GNNPolicy, "act_batch", counting)
        _planned_training(RecordingPPO, "routing")
        # Per rollout: 8 planned steps in one forward, then the bootstrap.
        assert batch_sizes == [8, 1] * 3

    def test_iterative_rollout_takes_one_forward_per_wavefront(self, monkeypatch):
        batch_sizes = []
        original = IterativeGNNPolicy.act_batch

        def counting(policy, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return original(policy, observations, *args, **kwargs)

        monkeypatch.setattr(IterativeGNNPolicy, "act_batch", counting)
        net = abilene()
        sequences = [cyclical_sequence(net.num_nodes, 12, 3, seed=i) for i in range(2)]
        env = IterativeRoutingEnv(net, sequences, memory_length=3, seed=0)
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2)
        ppo = PPO(policy, env, PPOConfig(n_steps=64, batch_size=64, n_epochs=1), seed=0)
        ppo.learn(2 * 64)
        # 64 sub-steps of m = 28 edges: chains of 28, 28 and 8 sub-steps, then
        # 20, 28 and 16, so 28 wavefronts each, plus the bootstrap.
        first = [3] * 8 + [2] * 20
        second = [3] * 16 + [2] * 4 + [1] * 8
        assert batch_sizes == first + [1] + second + [1]
