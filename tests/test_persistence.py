"""Tests for model persistence: save/load round-trips across all policies."""

import numpy as np
import pytest

from repro.envs.observation import GraphObservation
from repro.graphs import abilene, nsfnet
from repro.policies import GNNPolicy, IterativeGNNPolicy, MLPPolicy
from repro.tensor.nn import MLP
from tests.helpers import reference_act

RNG = np.random.default_rng(55)


def observation_for(net, memory=3, with_edge_state=False):
    history = RNG.uniform(0.0, 1.0, size=(memory, net.num_nodes, net.num_nodes))
    edge_state = np.zeros((net.num_edges, 3)) if with_edge_state else None
    if edge_state is not None:
        edge_state[0, 2] = 1.0
    return GraphObservation(net, history, edge_state=edge_state)


class TestModuleSaveLoad:
    def test_mlp_roundtrip(self, tmp_path):
        path = tmp_path / "mlp.npz"
        source = MLP([4, 8, 2], np.random.default_rng(0))
        source.save(path)
        target = MLP([4, 8, 2], np.random.default_rng(99))  # different init
        target.load(path)
        for a, b in zip(source.state_dict(), target.state_dict()):
            np.testing.assert_array_equal(a, b)

    def test_load_into_wrong_architecture_fails(self, tmp_path):
        path = tmp_path / "mlp.npz"
        MLP([4, 8, 2], np.random.default_rng(0)).save(path)
        wrong = MLP([4, 16, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            wrong.load(path)


class TestPolicyRoundtrips:
    def test_gnn_policy_identical_actions_after_reload(self, tmp_path):
        path = tmp_path / "gnn.npz"
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=1)
        obs = observation_for(abilene())
        action_before, _, value_before = reference_act(policy, obs, RNG, deterministic=True)
        policy.save(path)

        restored = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=77)
        restored.load(path)
        action_after, _, value_after = reference_act(restored, obs, RNG, deterministic=True)
        np.testing.assert_array_equal(action_before, action_after)
        assert value_before == value_after

    def test_reloaded_gnn_transfers_to_new_topology(self, tmp_path):
        """Save on Abilene, reload, run on NSFNET: the GDDR deployment story."""
        path = tmp_path / "gnn.npz"
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=1)
        policy.save(path)
        restored = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=2)
        restored.load(path)
        action, _, _ = reference_act(restored, observation_for(nsfnet()), RNG)
        assert action.shape == (nsfnet().num_edges,)

    def test_mlp_policy_roundtrip(self, tmp_path):
        path = tmp_path / "mlp_policy.npz"
        net = abilene()
        policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=1)
        obs = observation_for(net)
        before, _, _ = reference_act(policy, obs, RNG, deterministic=True)
        policy.save(path)
        restored = MLPPolicy(net.num_nodes, net.num_edges, memory_length=3, seed=9)
        restored.load(path)
        after, _, _ = reference_act(restored, obs, RNG, deterministic=True)
        np.testing.assert_array_equal(before, after)

    def test_iterative_policy_roundtrip(self, tmp_path):
        path = tmp_path / "iter.npz"
        policy = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=1)
        obs = observation_for(abilene(), with_edge_state=True)
        before, _, _ = reference_act(policy, obs, RNG, deterministic=True)
        policy.save(path)
        restored = IterativeGNNPolicy(memory_length=3, latent=8, hidden=8, seed=4)
        restored.load(path)
        after, _, _ = reference_act(restored, obs, RNG, deterministic=True)
        np.testing.assert_array_equal(before, after)

    def test_log_std_included_in_roundtrip(self, tmp_path):
        path = tmp_path / "p.npz"
        policy = GNNPolicy(memory_length=3, latent=4, hidden=8, seed=0, initial_log_std=-1.3)
        policy.save(path)
        restored = GNNPolicy(memory_length=3, latent=4, hidden=8, seed=0, initial_log_std=0.0)
        restored.load(path)
        assert restored.distribution.log_std.data == pytest.approx(-1.3)
