"""Tests for the routing environments (one-shot, iterative, multigraph)."""

import re

import numpy as np
import pytest

from repro.envs import (
    GraphObservation,
    IterativeRoutingEnv,
    MultiGraphRoutingEnv,
    NonFiniteActionError,
    RewardComputer,
    RoutingEnv,
    gamma_from_action,
    weights_from_action,
)
from repro.envs.routing_env import demand_normaliser
from repro.graphs import abilene, random_connected_network
from repro.traffic import cyclical_sequence
from tests.helpers import reference_reward, triangle_network


def sequences_for(net, count=2, length=8, cycle=4, seed=0):
    return [
        cyclical_sequence(net.num_nodes, length, cycle, seed=seed + i) for i in range(count)
    ]


class TestActionMappings:
    def test_weights_positive_and_monotonic(self):
        w = weights_from_action(np.array([-1.0, 0.0, 1.0]), scale=3.0)
        assert np.all(w > 0.0)
        assert w[0] < w[1] < w[2]
        assert w[1] == pytest.approx(1.0)

    def test_weights_clip_out_of_range(self):
        w = weights_from_action(np.array([-100.0, 100.0]), scale=2.0)
        assert w[0] == pytest.approx(np.exp(-2.0))
        assert w[1] == pytest.approx(np.exp(2.0))

    def test_gamma_squash_range(self):
        assert gamma_from_action(-100.0) == pytest.approx(0.5, abs=1e-6)
        assert gamma_from_action(100.0) == pytest.approx(10.0, abs=1e-6)
        mid = gamma_from_action(0.0)
        assert 0.5 < mid < 10.0

    def test_gamma_range_validation(self):
        with pytest.raises(ValueError):
            gamma_from_action(0.0, gamma_range=(2.0, 1.0))

    def test_non_finite_actions_raise_typed_error(self):
        assert issubclass(NonFiniteActionError, ValueError)
        with pytest.raises(NonFiniteActionError, match="2 non-finite of 3 entries"):
            weights_from_action(np.array([0.0, np.nan, np.inf]))
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteActionError, match="1 non-finite of 1 entries"):
                gamma_from_action(value)

    def test_demand_normaliser_positive(self):
        net = triangle_network()
        seqs = sequences_for(net)
        assert demand_normaliser(seqs) > 0.0


class TestRoutingEnv:
    def _env(self, **kwargs):
        net = abilene()
        defaults = dict(memory_length=3, seed=0, sample_sequences=False)
        defaults.update(kwargs)
        return RoutingEnv(net, sequences_for(net), **defaults)

    def test_reset_returns_observation(self):
        env = self._env()
        obs = env.reset()
        assert isinstance(obs, GraphObservation)
        assert obs.history.shape == (3, 11, 11)
        assert obs.network is env.network

    def test_observation_normalised(self):
        env = self._env()
        obs = env.reset()
        assert obs.history.max() < 10.0  # raw demands are in the hundreds

    def test_episode_length(self):
        env = self._env()
        assert env.episode_length == 8 - 3
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step(np.zeros(env.network.num_edges))
            steps += 1
        assert steps == env.episode_length

    def test_reward_is_negative_ratio(self):
        env = self._env()
        env.reset()
        action = np.zeros(env.network.num_edges)
        demand = env.sequences[0].matrix(env.memory_length)
        _, reward, _, info = env.step(action)
        weights = weights_from_action(action, env.weight_scale)
        expected = reference_reward(env.rewarder, env.network, weights, env.softmin_gamma, demand)
        assert reward == expected
        assert -reward >= 1.0 - 1e-6
        assert info == {}

    def test_step_before_reset_raises(self):
        env = self._env()
        with pytest.raises(RuntimeError, match="reset"):
            env.step(np.zeros(env.network.num_edges))

    def test_wrong_action_shape_rejected(self):
        env = self._env()
        env.reset()
        with pytest.raises(ValueError, match="shape"):
            env.step(np.zeros(3))

    def test_nan_action_raises_typed_error(self):
        env = self._env()
        env.reset()
        action = np.zeros(env.network.num_edges)
        action[[0, 5]] = np.nan
        with pytest.raises(NonFiniteActionError, match="2 non-finite"):
            env.step(action)

    def test_round_robin_sequence_selection(self):
        env = self._env(sample_sequences=False)
        first = env.reset()
        # Exhaust episode 1, then episode 2 must use the other sequence.
        done = False
        while not done:
            _, _, done, _ = env.step(np.zeros(env.network.num_edges))
        second = env.reset()
        assert not np.array_equal(first.history, second.history)

    def test_better_actions_get_better_reward(self):
        """Uniform weights (≈ ECMP) must beat adversarial random weights."""
        env = self._env()
        env.reset()
        _, reward_uniform, _, _ = env.step(np.zeros(env.network.num_edges))
        env2 = self._env()
        env2.reset()
        rng = np.random.default_rng(5)
        _, reward_random, _, _ = env2.step(rng.uniform(-1, 1, env2.network.num_edges))
        assert reward_uniform >= reward_random - 0.5  # sanity: same scale
        assert reward_uniform <= 0.0 and reward_random <= 0.0

    def test_validation(self):
        net = abilene()
        with pytest.raises(ValueError, match="at least one"):
            RoutingEnv(net, [])
        short = cyclical_sequence(net.num_nodes, 3, 3, seed=0)
        with pytest.raises(ValueError, match="too short"):
            RoutingEnv(net, [short], memory_length=5)
        wrong_size = cyclical_sequence(5, 8, 4, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            RoutingEnv(net, [wrong_size])
        with pytest.raises(ValueError, match="softmin_gamma"):
            RoutingEnv(net, sequences_for(net), softmin_gamma=0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_gamma_rejected_at_construction(self, gamma):
        net = abilene()
        with pytest.raises(ValueError, match="gamma"):
            RoutingEnv(net, sequences_for(net), softmin_gamma=gamma)


class TestIterativeRoutingEnv:
    def _env(self, **kwargs):
        net = triangle_network()
        defaults = dict(memory_length=2, seed=0, sample_sequences=False)
        defaults.update(kwargs)
        return IterativeRoutingEnv(net, sequences_for(net, length=6, cycle=3), **defaults)

    def test_edge_markers_walk_edges(self):
        env = self._env()
        obs = env.reset()
        m = env.network.num_edges
        assert obs.edge_state.shape == (m, 3)
        assert obs.edge_state[0, 2] == 1.0  # first target
        obs, reward, done, info = env.step(np.array([0.5, 0.0]))
        assert reward == 0.0 and not done
        assert obs.edge_state[0, 1] == 1.0  # set flag recorded
        assert obs.edge_state[0, 0] == pytest.approx(0.5)
        assert obs.edge_state[1, 2] == 1.0  # next target

    def test_reward_on_final_edge_only(self):
        env = self._env()
        env.reset()
        m = env.network.num_edges
        rewards = []
        for _ in range(m):
            _, reward, _, info = env.step(np.array([0.0, 0.0]))
            rewards.append(reward)
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] < 0.0
        assert info == {}

    def test_episode_length_formula(self):
        env = self._env()
        env.reset()
        expected = env.episode_length
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step(np.zeros(2))
            steps += 1
        assert steps == expected == (6 - 2) * env.network.num_edges

    def test_weight_clipped_to_unit_interval(self):
        env = self._env()
        env.reset()
        obs, _, _, _ = env.step(np.array([5.0, 0.0]))
        assert obs.edge_state[0, 0] == pytest.approx(1.0)

    def test_action_shape_validation(self):
        env = self._env()
        env.reset()
        with pytest.raises(ValueError, match="shape"):
            env.step(np.zeros(3))

    def test_nan_action_raises_typed_error(self):
        m = self._env().network.num_edges
        # A NaN edge weight surfaces when the last edge completes the action...
        env = self._env()
        env.reset()
        env.step(np.array([np.nan, 0.0]))
        for _ in range(m - 2):
            env.step(np.zeros(2))
        with pytest.raises(NonFiniteActionError, match="1 non-finite"):
            env.step(np.zeros(2))
        # ...and so does a NaN gamma output on that last sub-step.
        env = self._env()
        env.reset()
        for _ in range(m - 1):
            env.step(np.zeros(2))
        with pytest.raises(NonFiniteActionError, match="1 non-finite"):
            env.step(np.array([0.0, np.nan]))

    @pytest.mark.parametrize(
        "gamma_range",
        [(5.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (0.5, np.inf)],
    )
    def test_gamma_range_validated_at_construction(self, gamma_range):
        with pytest.raises(ValueError, match="gamma"):
            self._env(gamma_range=gamma_range)

    def test_marker_state_resets_between_matrices(self):
        env = self._env()
        env.reset()
        m = env.network.num_edges
        for _ in range(m):
            obs, _, _, _ = env.step(np.array([0.7, 0.0]))
        # After the DM boundary, edge state must be cleared.
        assert obs.edge_state[:, 1].sum() == 0.0
        assert obs.edge_state[0, 2] == 1.0


class TestMultiGraphRoutingEnv:
    def _pairs(self, seed=0):
        nets = [abilene(), random_connected_network(7, 4, seed=seed)]
        return [(n, sequences_for(n, seed=seed + i)) for i, n in enumerate(nets)]

    def test_episodes_sample_topologies(self):
        env = MultiGraphRoutingEnv(self._pairs(), memory_length=3, seed=1)
        sizes = set()
        for _ in range(10):
            obs = env.reset()
            sizes.add(obs.network.num_nodes)
        assert sizes == {11, 7}

    def test_current_network_tracks_episode(self):
        env = MultiGraphRoutingEnv(self._pairs(), memory_length=3, seed=2)
        obs = env.reset()
        assert env.current_network is obs.network

    def test_step_requires_reset(self):
        env = MultiGraphRoutingEnv(self._pairs(), memory_length=3, seed=0)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(4))

    def test_iterative_inner_envs(self):
        env = MultiGraphRoutingEnv(self._pairs(), iterative=True, memory_length=3, seed=3)
        obs = env.reset()
        assert obs.edge_state is not None
        assert env.action_space.shape == (2,)
        _, reward, _, _ = env.step(np.zeros(2))
        assert reward == 0.0

    def test_networks_property(self):
        env = MultiGraphRoutingEnv(self._pairs(), memory_length=3, seed=0)
        assert len(env.networks) == 2

    @pytest.mark.parametrize("iterative", [False, True])
    def test_pool_plans_chains_on_the_episode_env(self, iterative):
        env = MultiGraphRoutingEnv(self._pairs(), iterative=iterative, memory_length=3, seed=0)
        assert env.chained
        env.reset()
        inner = env._current
        chain, _ = env.plan_chain(inner.network.num_edges)
        assert chain.complete and chain.observation().network is inner.network
        assert env.observation().network is inner.network
        for _ in range(chain.length):
            chain.act(np.zeros(chain.action_size))
        (reward,) = env.score_chains([chain])
        assert reward == reference_reward(inner.rewarder, *chain.routing()) < 0.0

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            MultiGraphRoutingEnv([])

    def test_shared_reward_computer(self):
        rewarder = RewardComputer()
        env = MultiGraphRoutingEnv(self._pairs(), reward_computer=rewarder, memory_length=3, seed=0)
        assert all(inner.rewarder is rewarder for inner in env.inner_envs)


def _refusal_env(kind):
    if kind == "iterative":
        net = triangle_network()
        sequences = sequences_for(net, length=6, cycle=3)
        return IterativeRoutingEnv(net, sequences, memory_length=2, seed=0)
    if kind == "multigraph":
        return MultiGraphRoutingEnv(TestMultiGraphRoutingEnv()._pairs(), memory_length=3, seed=0)
    return RoutingEnv(abilene(), sequences_for(abilene()), memory_length=3, seed=0)


def _action_size(observation):
    return 2 if observation.edge_state is not None else observation.network.num_edges


def _timestep(observation):
    """The demand history and (iterative) target edge an observation shows."""
    state = observation.edge_state
    return observation.history.tobytes(), None if state is None else state[:, 2].tobytes()


_KINDS = ["routing", "iterative", "multigraph"]


class TestRefusedActions:
    """``Env.step`` refuses a bad action with the error its chain raises."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_wrong_shape(self, kind):
        env = _refusal_env(kind)
        message = f"action has shape (3,), expected ({_action_size(env.reset())},)"
        with pytest.raises(ValueError, match=re.escape(message)):
            env.step(np.zeros(3))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_nan_action(self, kind):
        env = _refusal_env(kind)
        m = env.reset().network.num_edges
        if kind == "iterative":
            # NaN weights for edges 0 and 1 surface when the last edge is set.
            for j in range(m - 1):
                env.step(np.array([np.nan if j < 2 else 0.0, 0.0]))
            action = np.zeros(2)
        else:
            action = np.zeros(m)
            action[[0, 5]] = np.nan
        with pytest.raises(NonFiniteActionError, match=f"2 non-finite of {m} entries"):
            env.step(action)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("routing", "call reset() first"),
            ("iterative", "call reset() before step()"),
            ("multigraph", "call reset() before step()"),
        ],
        ids=_KINDS,
    )
    def test_step_before_reset(self, kind, message):
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _refusal_env(kind).step(np.zeros(2))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_refused_action_consumes_its_timestep(self, kind):
        refused, taken = _refusal_env(kind), _refusal_env(kind)
        before = refused.reset()
        taken.reset()
        with pytest.raises(ValueError, match="shape"):
            refused.step(np.zeros(3))
        taken.step(np.zeros(_action_size(before)))
        after = refused.observation()
        assert _timestep(after) == _timestep(taken.observation()) != _timestep(before)


def _flapping_env():
    """Abilene under a two-link flap: planned contexts carry two networks."""
    from repro.api.registry import DYNAMICS

    net = abilene()
    sequences = sequences_for(net, length=9, cycle=3)
    timeline = DYNAMICS.get("link_flap")(net, 9, num_failures=2, seed=1)
    sequences = [timeline.transform_sequence(s) for s in sequences]
    return RoutingEnv(net, sequences, memory_length=3, seed=0, dynamics=timeline)


def _mixed_pool():
    nets = [abilene(), random_connected_network(7, 4, seed=0)]
    pairs = [(n, sequences_for(n, length=5, seed=i)) for i, n in enumerate(nets)]
    return MultiGraphRoutingEnv(pairs, memory_length=3, seed=4)


def _plan_one_shot(env, count):
    """``count`` planned one-shot chains, resetting after each episode."""
    env.reset()
    chains = []
    for _ in range(count):
        chain, done = env.plan_chain(1)
        chains.append(chain)
        if done:
            env.reset()
    return chains


class TestBlockScoring:
    """``score_chains`` scores a planned block in one stacked call, and
    scores and fails exactly as scoring each step on its own does."""

    @pytest.mark.parametrize(
        "make_env", [_flapping_env, _mixed_pool], ids=["dynamics", "multigraph"]
    )
    def test_each_step_scores_on_its_own_network(self, make_env):
        env = make_env()
        chains = _plan_one_shot(env, 12)
        assert len({chain.context[0].edges for chain in chains}) == 2
        rng = np.random.default_rng(0)
        for chain in chains:
            chain.act(rng.uniform(-1, 1, chain.action_size))
        rewards = env.score_chains(chains)
        expected = [reference_reward(env.rewarder, *chain.routing()) for chain in chains]
        np.testing.assert_array_equal(rewards, expected)

    def test_nan_action_at_step_k_raises_typed_error(self):
        env = RoutingEnv(abilene(), sequences_for(abilene()), memory_length=3, seed=0)
        chains = _plan_one_shot(env, 6)
        m = env.network.num_edges
        for k, chain in enumerate(chains):
            action = np.zeros(m)
            action[: 2 if k == 3 else 0] = np.nan
            chain.act(action)
        with pytest.raises(NonFiniteActionError, match=f"2 non-finite of {m} entries"):
            env.score_chains(chains)

    def test_nan_weight_in_an_iterative_chain_raises_typed_error(self):
        net = triangle_network()
        sequences = sequences_for(net, length=6, cycle=3)
        env = IterativeRoutingEnv(net, sequences, memory_length=2, seed=0)
        env.reset()
        chains = [env.plan_chain(net.num_edges)[0] for _ in range(2)]
        for k, chain in enumerate(chains):
            for j in range(chain.length):
                chain.act(np.array([np.nan if (k, j) == (1, 2) else 0.0, 0.0]))
        with pytest.raises(NonFiniteActionError, match="1 non-finite"):
            env.score_chains(chains)

    def test_wrong_shape_action_raises_the_per_step_error(self):
        env = RoutingEnv(abilene(), sequences_for(abilene()), memory_length=3, seed=0)
        chains = _plan_one_shot(env, 4)
        for k, chain in enumerate(chains):
            chain.act(np.zeros(3 if k == 2 else chain.action_size))
        stepped = RoutingEnv(abilene(), sequences_for(abilene()), memory_length=3, seed=0)
        stepped.reset()
        with pytest.raises(ValueError) as per_step:
            stepped.step(np.zeros(3))
        with pytest.raises(ValueError) as block:
            env.score_chains(chains)
        assert str(block.value) == str(per_step.value)

    def test_all_zero_demand_scores_one_without_an_lp_solve(self, monkeypatch):
        from repro.traffic import bimodal_matrix

        net = abilene()
        rewarder = RewardComputer()
        asked = []
        lookup = rewarder.cache.optimal_max_utilisation

        def counting(network, demand):
            asked.append(demand)
            return lookup(network, demand)

        monkeypatch.setattr(rewarder.cache, "optimal_max_utilisation", counting)
        zero = np.zeros((net.num_nodes, net.num_nodes))
        demand = bimodal_matrix(net.num_nodes, seed=0)
        weights = np.ones(net.num_edges)
        ratios = rewarder.block_ratios(
            [(net, weights, 2.0, zero), (net, weights, 2.0, demand), (net, weights, 2.0, zero)]
        )
        assert ratios[0] == ratios[2] == 1.0
        assert len(asked) == 1 and np.array_equal(asked[0], demand)
        assert ratios[1] == -reference_reward(rewarder, net, weights, 2.0, demand)

    def test_chunked_blocks_score_the_same(self, monkeypatch):
        import repro.envs.reward as reward_module
        import repro.graphs.kernels as kernels

        env = _mixed_pool()
        chains = _plan_one_shot(env, 10)
        for chain in chains:
            chain.act(np.linspace(-1, 1, chain.action_size))
        whole = env.score_chains(chains)
        monkeypatch.setattr(reward_module, "BLOCK_FLOATS", 1)  # one step per call
        monkeypatch.setattr(kernels, "STACKED_DIJKSTRA_NODES", 20)  # a copy or two per Dijkstra
        np.testing.assert_array_equal(env.score_chains(chains), whole)
