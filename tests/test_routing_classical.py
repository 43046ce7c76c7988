"""Tests for the classical baselines: shortest-path/ECMP, LP-derived
oblivious, and the proportional translations."""

import numpy as np
import pytest

from repro.envs.reward import RewardComputer
from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import link_loads, max_link_utilisation
from repro.graphs import abilene
from repro.routing.oblivious import cancel_flow_cycles, lp_derived_routing, oblivious_routing
from repro.routing.proportional import capacity_proportional_routing, inverse_weight_routing
from repro.routing.shortest_path import (
    ecmp_routing,
    inverse_capacity_weights,
    shortest_path_routing,
)
from repro.routing.strategy import validate_routing
from repro.traffic import bimodal_matrix, cyclical_sequence
from tests.helpers import line_network, square_network, triangle_network


def all_pairs(net):
    return [(s, t) for s in range(net.num_nodes) for t in range(net.num_nodes) if s != t]


class TestShortestPath:
    def test_single_path_per_destination(self):
        net = square_network()
        routing = shortest_path_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)
            # single-path: at most one outgoing ratio per vertex, and binary
            vector = routing.ratios(s, t)
            assert set(np.round(vector, 9)) <= {0.0, 1.0}

    def test_line_graph_unique_route(self):
        net = line_network(4)
        routing = shortest_path_routing(net)
        loads = link_loads(net, routing, _dm(net, 0, 3, 6.0))
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(6.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(6.0)
        assert loads[net.edge_index[(2, 3)]] == pytest.approx(6.0)

    def test_respects_weights(self):
        net = triangle_network()
        weights = np.ones(net.num_edges)
        weights[net.edge_index[(0, 2)]] = 10.0
        routing = shortest_path_routing(net, weights)
        vector = routing.ratios(0, 2)
        assert vector[net.edge_index[(0, 1)]] == 1.0  # detour is cheaper
        assert vector[net.edge_index[(0, 2)]] == 0.0

    def test_rejects_nonpositive_weights(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="positive"):
            shortest_path_routing(net, np.zeros(net.num_edges))

    def test_rejects_bad_weight_shape(self):
        with pytest.raises(ValueError, match="shape"):
            shortest_path_routing(triangle_network(), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [shortest_path_routing, ecmp_routing])
    def test_rejects_non_finite_weights(self, build, bad):
        net = square_network()
        weights = np.ones(net.num_edges)
        weights[2] = bad
        with pytest.raises(ValueError, match="finite"):
            build(net, weights)


class TestECMP:
    def test_even_split_on_equal_paths(self):
        # Square without diagonal: 0->2 has two 2-hop paths.
        from repro.graphs import Network

        net = Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        routing = ecmp_routing(net)
        vector = routing.ratios(0, 2)
        assert vector[net.edge_index[(0, 1)]] == pytest.approx(0.5)
        assert vector[net.edge_index[(0, 3)]] == pytest.approx(0.5)

    def test_all_pairs_valid(self):
        net = abilene()
        routing = ecmp_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_ecmp_never_worse_than_single_path_on_uniform(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=3)
        sp = max_link_utilisation(net, shortest_path_routing(net), dm)
        ecmp = max_link_utilisation(net, ecmp_routing(net), dm)
        assert ecmp <= sp * (1.0 + 1e-9)

    def test_inverse_capacity_weights(self):
        net = triangle_network().with_capacities([10.0, 20.0, 10.0, 20.0, 10.0, 20.0])
        weights = inverse_capacity_weights(net)
        assert weights[0] == pytest.approx(2.0)
        assert weights[1] == pytest.approx(1.0)


class TestObliviousRouting:
    def test_valid_for_all_pairs(self):
        net = abilene()
        routing = oblivious_routing(net)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_lp_derived_achieves_optimum_on_reference(self):
        net = abilene()
        reference = bimodal_matrix(net.num_nodes, seed=8)
        routing = lp_derived_routing(net, reference)
        optimal = solve_optimal_max_utilisation(net, reference).max_utilisation
        achieved = max_link_utilisation(net, routing, reference)
        assert achieved == pytest.approx(optimal, rel=1e-5)

    def test_oblivious_reasonable_on_unseen_demand(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=9)
        ratio = RewardComputer().utilisation_ratio(net, oblivious_routing(net), dm)
        assert 1.0 - 1e-9 <= ratio < 2.0

    def test_cancel_flow_cycles_removes_circulation(self):
        net = triangle_network()
        flows = np.zeros(net.num_edges)
        # A pure 3-cycle plus a real path 0->1.
        flows[net.edge_index[(0, 1)]] = 2.0  # 1 path + 1 circulating
        flows[net.edge_index[(1, 2)]] = 1.0
        flows[net.edge_index[(2, 0)]] = 1.0
        cleaned = cancel_flow_cycles(net, flows)
        assert cleaned[net.edge_index[(1, 2)]] == pytest.approx(0.0)
        assert cleaned[net.edge_index[(2, 0)]] == pytest.approx(0.0)
        assert cleaned[net.edge_index[(0, 1)]] == pytest.approx(1.0)

    def test_cancel_flow_cycles_preserves_acyclic_flow(self):
        net = line_network(3)
        flows = np.zeros(net.num_edges)
        flows[net.edge_index[(0, 1)]] = 3.0
        flows[net.edge_index[(1, 2)]] = 3.0
        np.testing.assert_allclose(cancel_flow_cycles(net, flows), flows)


def _dm(net, s, t, d):
    dm = np.zeros((net.num_nodes, net.num_nodes))
    dm[s, t] = d
    return dm


@pytest.fixture(scope="module")
def workload():
    net = abilene()
    seq = cyclical_sequence(net.num_nodes, 20, 4, seed=0)
    return net, seq


class TestProportionalTranslations:
    def test_inverse_weight_routing_valid(self, workload):
        net, seq = workload
        weights = np.random.default_rng(0).uniform(0.2, 5.0, net.num_edges)
        routing = inverse_weight_routing(net, weights)
        for s in range(net.num_nodes):
            for t in range(net.num_nodes):
                if s != t:
                    validate_routing(routing, s, t)

    def test_inverse_weight_prefers_cheap_edges(self):
        from repro.graphs import Network

        net = Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        weights = np.ones(net.num_edges)
        weights[net.edge_index[(0, 1)]] = 4.0  # same DAG, pricier branch
        routing = inverse_weight_routing(net, weights)
        vector = routing.ratios(0, 2)
        assert vector[net.edge_index[(0, 3)]] > vector[net.edge_index[(0, 1)]]

    def test_capacity_proportional_valid_and_tracks_capacity(self, workload):
        net, seq = workload
        routing = capacity_proportional_routing(net)
        for s in range(net.num_nodes):
            for t in range(net.num_nodes):
                if s != t:
                    validate_routing(routing, s, t)
        ratio = RewardComputer().utilisation_ratio(net, routing, seq.matrix(5))
        assert np.isfinite(ratio) and ratio >= 1.0 - 1e-6

    def test_translations_comparable_to_softmin(self, workload):
        """All translations on uniform weights should land in the same league."""
        from repro.routing.softmin import softmin_routing

        net, seq = workload
        weights = np.ones(net.num_edges)
        dm = seq.matrix(5)
        u_soft = max_link_utilisation(net, softmin_routing(net, weights, gamma=2.0), dm)
        u_inv = max_link_utilisation(net, inverse_weight_routing(net, weights), dm)
        assert u_inv <= 2.0 * u_soft
