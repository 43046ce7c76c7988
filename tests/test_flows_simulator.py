"""Tests for the splitting-ratio flow simulator."""

import numpy as np
import pytest

from repro.envs.reward import RewardComputer
from repro.flows.simulator import (
    RoutingLoopError,
    link_loads,
    max_link_utilisation,
    ratio_to_optimum,
)
from repro.routing.strategy import DestinationRouting, FlowRouting
from tests.helpers import line_network, square_network, triangle_network


def single_flow_dm(n, s, t, d):
    dm = np.zeros((n, n))
    dm[s, t] = d
    return dm


def make_flow_routing(net, table):
    return FlowRouting(net, table)


class TestLinkLoads:
    def test_line_graph_exact_loads(self):
        net = line_network(3, capacity=10.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 1)]] = 1.0
        ratios[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        loads = link_loads(net, routing, single_flow_dm(3, 0, 2, 4.0))
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(4.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(4.0)
        assert loads[net.edge_index[(1, 0)]] == 0.0

    def test_split_flow(self):
        net = triangle_network(capacity=10.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 2)]] = 0.25
        ratios[net.edge_index[(0, 1)]] = 0.75
        ratios[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        loads = link_loads(net, routing, single_flow_dm(3, 0, 2, 8.0))
        assert loads[net.edge_index[(0, 2)]] == pytest.approx(2.0)
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(6.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(6.0)

    def test_flows_superpose_across_commodities(self):
        net = line_network(3, capacity=10.0)
        r02 = np.zeros(net.num_edges)
        r02[net.edge_index[(0, 1)]] = 1.0
        r02[net.edge_index[(1, 2)]] = 1.0
        r12 = np.zeros(net.num_edges)
        r12[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): r02, (1, 2): r12})
        dm = single_flow_dm(3, 0, 2, 4.0) + single_flow_dm(3, 1, 2, 3.0)
        loads = link_loads(net, routing, dm)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(7.0)

    def test_destination_routing_aggregates_sources(self):
        net = line_network(3, capacity=10.0)
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 2)]] = 1.0
        routing = DestinationRouting(net, table)
        dm = single_flow_dm(3, 0, 2, 4.0) + single_flow_dm(3, 1, 2, 3.0)
        loads = link_loads(net, routing, dm)
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(4.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(7.0)

    def test_leaky_loop_amplifies_load(self):
        # 0 -> 1, then 1 sends half back to 0 and half onward to 2; node 0
        # forwards everything to 1 again.  The recirculation costs capacity:
        # edge (0,1) carries d * (1 + 1/2 + 1/4 + ...) = 2d.
        net = triangle_network(capacity=100.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 1)]] = 1.0
        ratios[net.edge_index[(1, 0)]] = 0.5
        ratios[net.edge_index[(1, 2)]] = 0.5
        routing = make_flow_routing(net, {(0, 2): ratios})
        loads = link_loads(net, routing, single_flow_dm(3, 0, 2, 1.0))
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(2.0)
        assert loads[net.edge_index[(1, 2)]] == pytest.approx(1.0)

    def test_zero_leak_loop_raises(self):
        # All flow bounces 0 <-> 1 forever and never reaches 2.
        net = triangle_network()
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 1)]] = 1.0
        ratios[net.edge_index[(1, 0)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        with pytest.raises(RoutingLoopError):
            link_loads(net, routing, single_flow_dm(3, 0, 2, 1.0))

    def test_zero_demand_zero_loads(self):
        net = triangle_network()
        routing = make_flow_routing(net, {})
        loads = link_loads(net, routing, np.zeros((3, 3)))
        np.testing.assert_allclose(loads, 0.0)

    def test_size_mismatch_rejected(self):
        net = triangle_network()
        routing = make_flow_routing(net, {})
        with pytest.raises(ValueError, match="does not match"):
            link_loads(net, routing, np.zeros((5, 5)))


class TestUtilisation:
    def test_max_link_utilisation(self):
        net = line_network(3, capacity=8.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 1)]] = 1.0
        ratios[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        u = max_link_utilisation(net, routing, single_flow_dm(3, 0, 2, 4.0))
        assert u == pytest.approx(0.5)

    def test_utilisation_ratio_at_least_one(self):
        net = square_network(capacity=10.0)
        # Single path routing on a graph where the optimum splits.
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        ratio = RewardComputer().utilisation_ratio(net, routing, single_flow_dm(4, 0, 2, 9.0))
        assert ratio == pytest.approx(3.0)  # 0.9 achieved vs 0.3 optimal

    def test_utilisation_ratio_optimal_routing_is_one(self):
        net = triangle_network(capacity=10.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 2)]] = 0.5
        ratios[net.edge_index[(0, 1)]] = 0.5
        ratios[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        ratio = RewardComputer().utilisation_ratio(net, routing, single_flow_dm(3, 0, 2, 10.0))
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_utilisation_ratio_zero_demand_is_defined(self):
        # All-zero demand is trivially optimal: batch evaluation over sparse
        # traffic sequences must not abort mid-batch.
        net = triangle_network()
        routing = make_flow_routing(net, {})
        assert RewardComputer().utilisation_ratio(net, routing, np.zeros((3, 3))) == 1.0
        assert ratio_to_optimum(net, 0.0, np.zeros((3, 3)), lambda: 0.0) == (1.0, 0.0)

    def test_utilisation_ratio_rejects_zero_optimal_with_demand(self):
        net = triangle_network()
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        dm = single_flow_dm(3, 0, 2, 1.0)
        achieved = max_link_utilisation(net, routing, dm)
        with pytest.raises(ValueError, match="zero optimal"):
            ratio_to_optimum(net, achieved, dm, lambda: 0.0)

    def test_explicit_optimal_is_used(self):
        net = line_network(3, capacity=8.0)
        ratios = np.zeros(net.num_edges)
        ratios[net.edge_index[(0, 1)]] = 1.0
        ratios[net.edge_index[(1, 2)]] = 1.0
        routing = make_flow_routing(net, {(0, 2): ratios})
        dm = single_flow_dm(3, 0, 2, 4.0)
        achieved = max_link_utilisation(net, routing, dm)
        ratio, optimal = ratio_to_optimum(net, achieved, dm, lambda: 0.25)
        assert (ratio, optimal) == (pytest.approx(2.0), 0.25)
