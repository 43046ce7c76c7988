"""Tests for RL substrate components: spaces, episode stats, distributions, buffer."""

import numpy as np
import pytest

from repro.rl.buffer import RolloutBuffer
from repro.rl.distributions import LOG_2PI, DiagonalGaussian
from repro.rl.env import EpisodeStats
from repro.rl.spaces import Box
from repro.tensor import Tensor


class TestBox:
    def test_sample_within_bounds(self):
        box = Box(-1.0, 1.0, (4,))
        sample = box.sample(np.random.default_rng(0))
        assert box.contains(sample)

    def test_contains_checks_shape(self):
        box = Box(-1.0, 1.0, (4,))
        assert not box.contains(np.zeros(3))

    def test_contains_checks_bounds(self):
        box = Box(-1.0, 1.0, (2,))
        assert not box.contains(np.array([0.0, 2.0]))

    def test_clip(self):
        box = Box(-1.0, 1.0, (2,))
        np.testing.assert_allclose(box.clip([5.0, -5.0]), [1.0, -1.0])

    def test_size(self):
        assert Box(0.0, 1.0, (3, 2)).size == 6

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            Box(1.0, -1.0, (2,))

    def test_equality(self):
        assert Box(0, 1, (2,)) == Box(0, 1, (2,))
        assert Box(0, 1, (2,)) != Box(0, 2, (2,))


class TestEpisodeStats:
    def test_counts_episodes(self):
        stats = EpisodeStats()
        for r, d in [(1.0, False), (2.0, True), (3.0, True)]:
            stats.record(r, d)
        assert stats.num_episodes == 2
        assert stats.episode_rewards == [3.0, 3.0]
        assert stats.episode_lengths == [2, 1]

    def test_recent_mean_window(self):
        stats = EpisodeStats()
        for r in [1.0, 2.0, 3.0]:
            stats.record(r, True)
        assert stats.recent_mean_reward(window=2) == pytest.approx(2.5)

    def test_nan_when_no_episodes(self):
        assert np.isnan(EpisodeStats().recent_mean_reward())


class TestDiagonalGaussian:
    def test_log_prob_matches_closed_form(self):
        dist = DiagonalGaussian(initial_log_std=np.log(0.5))
        mean = np.array([1.0, -1.0])
        action = np.array([1.5, -0.5])
        expected = sum(
            -0.5 * ((a - m) / 0.5) ** 2 - np.log(0.5) - 0.5 * LOG_2PI
            for a, m in zip(action, mean)
        )
        assert dist.log_prob_values([mean], [action])[0] == pytest.approx(expected)
        tensor_lp = dist.log_prob_flat_batch(Tensor(mean), action, np.zeros(2, dtype=int), 1)
        assert float(tensor_lp.numpy()[0]) == pytest.approx(expected)

    def test_tensor_log_prob_matches_numpy(self):
        dist = DiagonalGaussian(initial_log_std=-0.3)
        mean = np.array([0.2, 0.8, -0.1])
        action = np.array([0.0, 1.0, 0.0])
        tensor_lp = dist.log_prob_flat_batch(Tensor(mean), action, np.zeros(3, dtype=int), 1)
        numpy_lp = dist.log_prob_values([mean], [action])[0]
        assert float(tensor_lp.numpy()[0]) == pytest.approx(numpy_lp)

    def test_log_prob_gradient_flows_to_log_std(self):
        dist = DiagonalGaussian()
        lp = dist.log_prob_flat_batch(
            Tensor(np.zeros(2)), np.array([1.0, 1.0]), np.zeros(2, dtype=int), 1
        )
        lp.sum().backward()
        assert dist.log_std.grad is not None

    def test_sampling_statistics(self):
        dist = DiagonalGaussian(initial_log_std=np.log(2.0))
        rng = np.random.default_rng(0)
        samples = np.array([dist.sample(np.zeros(1), rng)[0] for _ in range(4000)])
        assert samples.std() == pytest.approx(2.0, rel=0.1)
        assert samples.mean() == pytest.approx(0.0, abs=0.15)

    def test_entropy_value(self):
        dist = DiagonalGaussian(initial_log_std=0.0)
        expected = 2 * 0.5 * (LOG_2PI + 1.0)
        assert float(dist.entropy_batch(np.array([2])).numpy()[0]) == pytest.approx(expected)

    def test_log_std_clamped(self):
        dist = DiagonalGaussian(initial_log_std=100.0, max_log_std=2.0)
        assert dist.std_value() == pytest.approx(np.exp(2.0))

    def test_flat_batch_matches_per_sample(self):
        dist = DiagonalGaussian(initial_log_std=-0.2)
        means = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        actions = means + 0.3
        ids = np.array([0, 0, 1, 1, 1])
        batch = dist.log_prob_flat_batch(Tensor(means), actions, ids, 2).numpy()
        lp0, lp1 = dist.log_prob_values([means[:2], means[2:]], [actions[:2], actions[2:]])
        np.testing.assert_allclose(batch, [lp0, lp1])

    def test_entropy_batch_varying_dims(self):
        dist = DiagonalGaussian(initial_log_std=0.0)
        out = dist.entropy_batch(np.array([1, 3])).numpy()
        single = 0.5 * (LOG_2PI + 1.0)
        np.testing.assert_allclose(out, [single, 3 * single])

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalGaussian(min_log_std=2.0, max_log_std=1.0)

    def test_batched_log_prob_matches_scalar_path(self):
        # Each sample scored as a batch of one (numpy and tensor side) must
        # agree with the ragged batch to floating-point noise.
        dist = DiagonalGaussian(initial_log_std=-0.7)
        rng = np.random.default_rng(11)
        means = [rng.normal(size=d) for d in (1, 3, 7, 2)]
        actions = [m + rng.normal(size=m.size) for m in means]
        batched = dist.log_prob_values(means, actions)
        for lp, mean, action in zip(batched, means, actions):
            scalar = dist.log_prob_values([mean], [action])[0]
            assert abs(lp - scalar) <= 1e-12
            ids = np.zeros(mean.size, dtype=int)
            tensor_lp = float(dist.log_prob_flat_batch(Tensor(mean), action, ids, 1).numpy()[0])
            assert abs(tensor_lp - scalar) <= 1e-12


class TestRolloutBuffer:
    def _fill(self, buffer, rewards, dones, values):
        for i, (r, d, v) in enumerate(zip(rewards, dones, values)):
            buffer.add(observation=i, action=i, reward=r, done=d, value=v, log_prob=0.0)

    def test_add_until_full(self):
        buffer = RolloutBuffer(3)
        self._fill(buffer, [1, 1, 1], [False] * 3, [0.0] * 3)
        assert buffer.full
        with pytest.raises(RuntimeError, match="full"):
            buffer.add(0, 0, 0.0, False, 0.0, 0.0)

    def test_gae_no_discount_terminal(self):
        # gamma=1, lambda=1, episode ends at last step: advantage = sum of
        # future rewards - value.
        buffer = RolloutBuffer(3, gamma=1.0, gae_lambda=1.0)
        self._fill(buffer, [1.0, 1.0, 1.0], [False, False, True], [0.0, 0.0, 0.0])
        buffer.compute_returns_and_advantages(last_value=99.0, last_done=True)
        np.testing.assert_allclose(buffer.advantages, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(buffer.returns, [3.0, 2.0, 1.0])

    def test_gae_bootstraps_when_not_done(self):
        buffer = RolloutBuffer(2, gamma=0.5, gae_lambda=1.0)
        self._fill(buffer, [0.0, 0.0], [False, False], [0.0, 0.0])
        buffer.compute_returns_and_advantages(last_value=8.0, last_done=False)
        # delta_1 = 0 + 0.5*8 - 0 = 4; delta_0 = 0 + 0.5*0 - 0 = 0 -> adv_0 = 0 + 0.5*4 = 2
        np.testing.assert_allclose(buffer.advantages, [2.0, 4.0])

    def test_done_cuts_bootstrap(self):
        buffer = RolloutBuffer(2, gamma=0.9, gae_lambda=0.9)
        self._fill(buffer, [1.0, 1.0], [True, False], [0.5, 0.5])
        buffer.compute_returns_and_advantages(last_value=10.0, last_done=False)
        # Step 0 terminal: delta_0 = 1 - 0.5 = 0.5, no flow from step 1.
        assert buffer.advantages[0] == pytest.approx(0.5)

    def test_minibatches_cover_everything_once(self):
        buffer = RolloutBuffer(6)
        self._fill(buffer, [0.0] * 6, [False] * 6, [0.0] * 6)
        buffer.compute_returns_and_advantages(0.0, False)
        seen = []
        for batch in buffer.minibatches(4, rng=0):
            seen.extend(batch.observations)
        assert sorted(seen) == list(range(6))

    def test_minibatches_require_finalisation(self):
        buffer = RolloutBuffer(2)
        self._fill(buffer, [0.0] * 2, [False] * 2, [0.0] * 2)
        with pytest.raises(RuntimeError, match="compute_returns"):
            list(buffer.minibatches(2))

    def test_advantages_require_full_buffer(self):
        buffer = RolloutBuffer(2)
        with pytest.raises(RuntimeError, match="full"):
            buffer.compute_returns_and_advantages(0.0, False)

    def test_reset_clears(self):
        buffer = RolloutBuffer(2)
        self._fill(buffer, [1.0, 1.0], [False] * 2, [0.0] * 2)
        buffer.reset()
        assert buffer.position == 0
        assert not buffer.observations

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0)
        with pytest.raises(ValueError):
            RolloutBuffer(2, gamma=1.5)
        with pytest.raises(ValueError):
            RolloutBuffer(2, gae_lambda=-0.1)
        buffer = RolloutBuffer(2)
        self._fill(buffer, [0.0] * 2, [False] * 2, [0.0] * 2)
        buffer.compute_returns_and_advantages(0.0, False)
        with pytest.raises(ValueError):
            list(buffer.minibatches(0))
