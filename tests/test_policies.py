"""Tests for the three agent policies, including generalisation properties."""

import numpy as np
import pytest

from repro.envs.observation import GraphObservation
from repro.graphs import abilene, nsfnet, random_modification
from repro.policies import GNNPolicy, IterativeGNNPolicy, MLPPolicy
from tests.helpers import reference_act, square_network, triangle_network

RNG = np.random.default_rng(33)


def observation_for(net, memory=3, seed=0, with_edge_state=False, target_edge=0):
    rng = np.random.default_rng(seed)
    history = rng.uniform(0.0, 1.0, size=(memory, net.num_nodes, net.num_nodes))
    for k in range(memory):
        np.fill_diagonal(history[k], 0.0)
    edge_state = None
    if with_edge_state:
        edge_state = np.zeros((net.num_edges, 3))
        edge_state[target_edge, 2] = 1.0
    return GraphObservation(net, history, edge_state=edge_state)


class TestGraphObservation:
    def test_validation(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="memory"):
            GraphObservation(net, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="nodes"):
            GraphObservation(net, np.zeros((2, 5, 5)))
        with pytest.raises(ValueError, match="edge_state"):
            GraphObservation(net, np.zeros((2, 3, 3)), edge_state=np.zeros((2, 3)))

    def test_flat_concatenates(self):
        net = triangle_network()
        obs = observation_for(net, memory=2, with_edge_state=True)
        assert obs.flat().shape == (2 * 9 + net.num_edges * 3,)

    def test_node_demand_features_shape_and_values(self):
        net = triangle_network()
        obs = observation_for(net, memory=2, seed=1)
        feats = obs.node_demand_features()
        assert feats.shape == (3, 4)
        # First memory column = outgoing sums of history step 0.
        np.testing.assert_allclose(feats[:, 0], obs.history[0].sum(axis=1))
        # Memory-th column = incoming sums of history step 0.
        np.testing.assert_allclose(feats[:, 2], obs.history[0].sum(axis=0))

    def test_edge_features_default_zero(self):
        net = triangle_network()
        obs = observation_for(net, memory=2)
        assert obs.edge_features().shape == (net.num_edges, 1)


class TestMLPPolicy:
    def test_act_shapes(self):
        net = abilene()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=0)
        obs = observation_for(net)
        actions, log_probs, values = policy.act_batch([obs], RNG)
        assert len(actions) == 1
        assert actions[0].shape == (net.num_edges,)
        assert log_probs.shape == (1,)
        assert values.shape == (1,)

    def test_deterministic_act_is_mean(self):
        net = abilene()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=0)
        obs = observation_for(net)
        a1, _, _ = policy.act_batch([obs], RNG, deterministic=True)
        a2, _, _ = policy.act_batch([obs], RNG, deterministic=True)
        np.testing.assert_array_equal(a1[0], a2[0])

    def test_rejects_wrong_topology(self):
        net = abilene()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=0)
        other = observation_for(nsfnet())
        with pytest.raises(ValueError, match="fixed-size"):
            policy.act_batch([other], RNG)

    def test_evaluate_matches_per_sample(self):
        net = triangle_network()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=2, seed=1)
        observations = [observation_for(net, memory=2, seed=i) for i in range(4)]
        actions = [RNG.normal(size=net.num_edges) for _ in range(4)]
        log_probs, values, entropies = policy.evaluate(observations, actions)
        assert log_probs.shape == (4,)
        for i in range(4):
            mean, _, value = reference_act(policy, observations[i], RNG, deterministic=True)
            expected_lp = policy.distribution.log_prob_values([mean], [actions[i]])[0]
            assert log_probs.numpy()[i] == pytest.approx(expected_lp)
            assert values.numpy()[i] == pytest.approx(value)

    def test_evaluate_gradients_flow(self):
        net = triangle_network()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=2, seed=1)
        observations = [observation_for(net, memory=2, seed=i) for i in range(3)]
        actions = [RNG.normal(size=net.num_edges) for _ in range(3)]
        log_probs, values, _ = policy.evaluate(observations, actions)
        (log_probs.sum() + values.sum()).backward()
        assert all(p.grad is not None for p in policy.pi.parameters())
        assert all(p.grad is not None for p in policy.vf.parameters())

    def test_distribution_parameter_included(self):
        net = triangle_network()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=2)
        params = list(policy.parameters())
        assert any(p is policy.distribution.log_std for p in params)

    def test_accepts_flat_array_observation(self):
        net = triangle_network()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=2, seed=0)
        flat = np.zeros(2 * 9)
        actions, _, _ = policy.act_batch([flat], RNG)
        assert actions[0].shape == (net.num_edges,)


class TestGNNPolicy:
    def test_action_size_follows_topology(self):
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        for net in (triangle_network(), abilene(), nsfnet()):
            actions, _, _ = policy.act_batch([observation_for(net)], RNG)
            assert actions[0].shape == (net.num_edges,)

    def test_same_parameters_across_topologies(self):
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        count = policy.num_parameters()
        policy.act_batch([observation_for(abilene())], RNG)
        policy.act_batch([observation_for(nsfnet())], RNG)
        assert policy.num_parameters() == count

    def test_rejects_non_graph_observation(self):
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        with pytest.raises(TypeError, match="GraphObservation"):
            policy.act_batch([np.zeros(10)], RNG)

    def test_rejects_memory_mismatch(self):
        policy = GNNPolicy(memory_length=5, latent=8, hidden=8, seed=0)
        with pytest.raises(ValueError, match="memory"):
            policy.act_batch([observation_for(triangle_network(), memory=3)], RNG)

    def test_evaluate_mixed_topologies(self):
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        nets = [triangle_network(), square_network(), abilene()]
        observations = [observation_for(n, seed=i) for i, n in enumerate(nets)]
        actions = [RNG.normal(size=n.num_edges) for n in nets]
        log_probs, values, entropies = policy.evaluate(observations, actions)
        assert log_probs.shape == (3,)
        assert values.shape == (3,)
        # Larger graphs have higher-dimensional actions => larger entropy.
        ent = entropies.numpy()
        assert ent[2] > ent[0]

    def test_evaluate_matches_single_forward(self):
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        net = square_network()
        obs = observation_for(net, seed=5)
        action = RNG.normal(size=net.num_edges)
        log_probs, values, _ = policy.evaluate([obs], [action])
        mean, _, value = reference_act(policy, obs, RNG, deterministic=True)
        expected = policy.distribution.log_prob_values([mean], [action])[0]
        assert log_probs.numpy()[0] == pytest.approx(expected)
        assert values.numpy()[0] == pytest.approx(value)

    def test_action_length_mismatch_rejected(self):
        # The shared evaluate checks the length for every policy, not only
        # the GNN whose action length varies with the topology.
        net = triangle_network()
        obs = observation_for(net)
        cases = [
            (GNNPolicy(memory_length=3, latent=8, hidden=8, seed=0), obs, net.num_edges),
            (MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=0), obs, net.num_edges),
            (
                IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0),
                observation_for(net, with_edge_state=True),
                2,
            ),
        ]
        for policy, observation, length in cases:
            with pytest.raises(ValueError, match="edges"):
                policy.evaluate([observation], [np.zeros(length + 1)])

    def test_generalisation_after_modification(self):
        """Trained-shape-agnostic: the same policy instance must run on a
        modified topology without any retraining or reconstruction."""
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        base = abilene()
        modified = random_modification(base, seed=1)
        a1, _, _ = policy.act_batch([observation_for(base)], RNG)
        a2, _, _ = policy.act_batch([observation_for(modified)], RNG)
        assert a1[0].shape == (base.num_edges,)
        assert a2[0].shape == (modified.num_edges,)


class TestIterativeGNNPolicy:
    def test_fixed_action_dim_across_topologies(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        for net in (triangle_network(), abilene()):
            obs = observation_for(net, with_edge_state=True)
            actions, _, _ = policy.act_batch([obs], RNG)
            assert actions[0].shape == (2,)

    def test_requires_edge_state(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        with pytest.raises(ValueError, match="edge_state"):
            policy.act_batch([observation_for(triangle_network())], RNG)

    def test_requires_graph_observation(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        with pytest.raises(TypeError):
            policy.act_batch([np.zeros(4)], RNG)

    def test_target_edge_changes_output(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        net = square_network()
        a0, _, _ = policy.act_batch(
            [observation_for(net, with_edge_state=True, target_edge=0)], RNG, deterministic=True
        )
        a1, _, _ = policy.act_batch(
            [observation_for(net, with_edge_state=True, target_edge=3)], RNG, deterministic=True
        )
        assert not np.allclose(a0[0], a1[0])

    def test_evaluate_batch(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        nets = [triangle_network(), abilene()]
        observations = [observation_for(n, with_edge_state=True, seed=i) for i, n in enumerate(nets)]
        actions = [RNG.normal(size=2) for _ in nets]
        log_probs, values, entropies = policy.evaluate(observations, actions)
        assert log_probs.shape == (2,)
        np.testing.assert_allclose(entropies.numpy()[0], entropies.numpy()[1])

    def test_evaluate_action_shape_check(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        obs = observation_for(triangle_network(), with_edge_state=True)
        with pytest.raises(ValueError, match="action entries"):
            policy.evaluate([obs], [np.zeros(3)])

    def test_gradients_flow(self):
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        obs = observation_for(square_network(), with_edge_state=True)
        log_probs, values, _ = policy.evaluate([obs], [np.array([0.1, -0.2])])
        (log_probs.sum() + values.sum()).backward()
        assert all(p.grad is not None for p in policy.model.parameters())


def _policy_and_observation(kind):
    net = abilene()
    if kind == "mlp":
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=2)
        return policy, observation_for(net, seed=3)
    if kind == "gnn":
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=2)
        return policy, observation_for(net, seed=3)
    policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=2)
    return policy, observation_for(net, seed=3, with_edge_state=True, target_edge=4)


class TestBatchInvariance:
    """An observation's action never depends on the rest of its batch."""

    @pytest.mark.parametrize("kind", ["mlp", "gnn", "iterative"])
    def test_act_batch_rows_equal_batches_of_one(self, kind):
        policy, _ = _policy_and_observation(kind)
        iterative = kind == "iterative"
        networks = [abilene()] if kind == "mlp" else [abilene(), nsfnet(), square_network()]
        observations = [
            observation_for(networks[i % len(networks)], seed=i, with_edge_state=iterative)
            for i in range(40)
        ]
        alone = [policy.act_batch([o], RNG, deterministic=True) for o in observations]
        for start, stop in ((0, 2), (3, 20), (0, 40), (17, 18)):
            actions, log_probs, values = policy.act_batch(
                observations[start:stop], RNG, deterministic=True
            )
            for k, (action, log_prob, value) in enumerate(zip(actions, log_probs, values)):
                single_actions, single_log_probs, single_values = alone[start + k]
                np.testing.assert_array_equal(action, single_actions[0])
                assert log_prob == single_log_probs[0]
                assert value == single_values[0]


class TestSharedForward:
    """``act_batch`` on one observation reproduces the per-observation oracle."""

    @pytest.mark.parametrize("kind", ["mlp", "gnn", "iterative"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_batch_of_one_matches_reference_act(self, kind, deterministic):
        # For the MLP the oracle multiplies a 1-D row, act_batch a stacked
        # (1, d) matrix: the two products must agree bit for bit.
        policy, obs = _policy_and_observation(kind)
        for seed in range(5):
            actions, log_probs, values = policy.act_batch(
                [obs], np.random.default_rng(seed), deterministic=deterministic
            )
            action, log_prob, value = reference_act(
                policy, obs, np.random.default_rng(seed), deterministic=deterministic
            )
            np.testing.assert_array_equal(actions[0], action)
            assert log_probs[0] == log_prob
            assert values[0] == value
