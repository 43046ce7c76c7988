"""Tests for softmin routing and the DAG conversion algorithms."""

import numpy as np
import pytest

from repro.engine.softmin_batch import batch_softmin_ratios
from repro.flows.simulator import link_loads, max_link_utilisation
from repro.graphs import Network, abilene, random_connected_network
from repro.graphs.kernels import batch_distances_to_targets, decreasing_distance_mask
from repro.routing.dag import prune_graph_frontier
from repro.routing.shortest_path import shortest_path_routing
from repro.routing.softmin import softmin, softmin_routing
from repro.routing.strategy import DestinationRouting, FlowRouting, validate_routing
from repro.traffic import bimodal_matrix
from tests.helpers import square_network, triangle_network


def all_pairs(net):
    return [(s, t) for s in range(net.num_nodes) for t in range(net.num_nodes) if s != t]


def distance_masks(net, weights):
    """The ``distance`` pruner's DAG mask for every destination (row t)."""
    return decreasing_distance_mask(net, batch_distances_to_targets(net, weights))


def is_acyclic(net, mask):
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(net.num_nodes))
    for e, keep in enumerate(mask):
        if keep:
            g.add_edge(*net.edges[e])
    return nx.is_directed_acyclic_graph(g)


class TestSoftminFunction:
    def test_normalises_to_probability(self):
        out = softmin(np.array([1.0, 2.0, 3.0]), gamma=2.0)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out > 0.0)

    def test_smallest_gets_largest_share(self):
        out = softmin(np.array([1.0, 2.0, 3.0]), gamma=2.0)
        assert out[0] > out[1] > out[2]

    def test_gamma_zero_is_uniform(self):
        out = softmin(np.array([1.0, 5.0, 9.0]), gamma=0.0)
        np.testing.assert_allclose(out, [1 / 3] * 3)

    def test_large_gamma_approaches_argmin(self):
        out = softmin(np.array([1.0, 2.0]), gamma=100.0)
        assert out[0] > 0.999

    def test_stability_for_large_values(self):
        out = softmin(np.array([1e6, 1e6 + 1.0]), gamma=5.0)
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            softmin(np.array([]))
        with pytest.raises(ValueError, match="gamma"):
            softmin(np.array([1.0]), gamma=-1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_rejected_on_every_path(self, gamma):
        # A NaN/inf spread would build an all-zero table that carries no
        # traffic, scoring a ratio of 0.0 instead of failing.
        net = abilene()
        weights = np.ones(net.num_edges)
        with pytest.raises(ValueError, match="gamma must be finite"):
            softmin(np.array([1.0, 2.0]), gamma=gamma)
        for pruner in ("distance", "frontier"):
            with pytest.raises(ValueError, match="gamma must be finite"):
                softmin_routing(net, weights, gamma=gamma, pruner=pruner)
        with pytest.raises(ValueError, match="gamma must be finite"):
            batch_softmin_ratios(net, weights, gamma)


class TestPruneByDistance:
    def test_mask_is_acyclic(self):
        net = abilene()
        weights = np.random.default_rng(0).uniform(0.5, 2.0, net.num_edges)
        for mask in distance_masks(net, weights):
            assert is_acyclic(net, mask)

    def test_every_vertex_keeps_an_out_edge(self):
        net = abilene()
        for t, mask in enumerate(distance_masks(net, np.ones(net.num_edges))):
            for v in range(net.num_nodes):
                if v == t:
                    continue
                assert any(mask[e] for e in net.out_edges[v]), (v, t)

    def test_keeps_strictly_decreasing_edges_only(self):
        net = square_network()
        weights = np.ones(net.num_edges)
        distances = net.shortest_path_distances(weights, target=2)
        mask = distance_masks(net, weights)[2]
        for e, (u, v) in enumerate(net.edges):
            assert mask[e] == (distances[u] > distances[v])

    @pytest.mark.parametrize("target", [-1, 4])
    def test_rejects_out_of_range_target(self, target):
        # -1 must not wrap to the last destination's row.
        net = square_network()
        routing = softmin_routing(net, np.ones(net.num_edges), gamma=1.0)
        with pytest.raises(ValueError, match="out of range for 4 nodes"):
            routing.ratios(0, target)

    def test_multipath_preserved(self):
        # Square without diagonal: both 0->1->2 and 0->3->2 survive to t=2.
        net = Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        mask = distance_masks(net, np.ones(net.num_edges))[2]
        assert mask[net.edge_index[(0, 1)]]
        assert mask[net.edge_index[(0, 3)]]


class TestPruneGraphFrontier:
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_acyclic_with_path(self, seed):
        net = random_connected_network(7, 5, seed=seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, net.num_edges)
        for s, t in [(0, 6), (3, 1), (5, 2)]:
            mask = prune_graph_frontier(net, weights, s, t)
            assert is_acyclic(net, mask), (seed, s, t)
            assert _reaches(net, mask, s, t), (seed, s, t)

    def test_abilene_all_pairs(self):
        net = abilene()
        weights = np.random.default_rng(1).uniform(0.5, 2.0, net.num_edges)
        for s, t in all_pairs(net):
            mask = prune_graph_frontier(net, weights, s, t)
            assert is_acyclic(net, mask)
            assert _reaches(net, mask, s, t)

    def test_retains_multipath_on_diamond(self):
        # Diamond 0->{1,3}->2: the meet at 2's neighbours should keep both.
        net = Network.from_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        mask = prune_graph_frontier(net, np.ones(net.num_edges), 0, 2)
        kept = {net.edges[e] for e in range(net.num_edges) if mask[e]}
        # At minimum one shortest path; multipath keeps both branches.
        assert ((0, 1) in kept and (1, 2) in kept) or ((0, 3) in kept and (3, 2) in kept)

    @pytest.mark.parametrize(
        "role, pair",
        [("target", (0, -1)), ("source", (-1, 0)), ("target", (0, 4)), ("source", (4, 0))],
    )
    def test_rejects_out_of_range_vertices(self, role, pair):
        net = square_network()
        with pytest.raises(ValueError, match=rf"{role} must be in 0\.\.3"):
            prune_graph_frontier(net, np.ones(net.num_edges), *pair)

    def test_unreachable_target_raises(self):
        net = Network(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError, match="unreachable"):
            prune_graph_frontier(net, np.ones(3), 2, 0)


class TestSoftminRouting:
    def test_distance_pruner_returns_destination_routing(self):
        net = abilene()
        routing = softmin_routing(net, np.ones(net.num_edges), gamma=2.0)
        assert isinstance(routing, DestinationRouting)

    def test_frontier_pruner_returns_flow_routing(self):
        net = triangle_network()
        routing = softmin_routing(
            net, np.ones(net.num_edges), gamma=2.0, pruner="frontier", pairs=[(0, 2)]
        )
        assert isinstance(routing, FlowRouting)

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 8.0])
    def test_all_flows_valid_distance(self, gamma):
        net = abilene()
        weights = np.random.default_rng(2).uniform(0.1, 5.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=gamma)
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_all_flows_valid_frontier(self):
        net = abilene()
        weights = np.random.default_rng(3).uniform(0.1, 5.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=2.0, pruner="frontier")
        for s, t in all_pairs(net):
            validate_routing(routing, s, t)

    def test_high_gamma_approaches_shortest_path(self):
        net = abilene()
        weights = np.random.default_rng(4).uniform(0.5, 2.0, net.num_edges)
        dm = bimodal_matrix(net.num_nodes, seed=4)
        sharp = softmin_routing(net, weights, gamma=200.0)
        sp = shortest_path_routing(net, weights)
        u_sharp = max_link_utilisation(net, sharp, dm)
        u_sp = max_link_utilisation(net, sp, dm)
        assert u_sharp == pytest.approx(u_sp, rel=0.05)

    def test_weight_validation(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="positive"):
            softmin_routing(net, np.zeros(net.num_edges))
        with pytest.raises(ValueError, match="shape"):
            softmin_routing(net, np.ones(2))
        bad = np.ones(net.num_edges)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            softmin_routing(net, bad)

    def test_unknown_pruner(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="pruner"):
            softmin_routing(net, np.ones(net.num_edges), pruner="magic")

    def test_no_loops_in_simulated_flow(self):
        # Softmin routing must never trap flow; simulation succeeds for many
        # random weight draws.
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(5):
            weights = rng.uniform(0.05, 20.0, net.num_edges)
            routing = softmin_routing(net, weights, gamma=2.0)
            loads = link_loads(net, routing, dm)
            assert np.all(np.isfinite(loads))

    def test_conservation_through_simulation(self):
        # Total delivered flow equals total demand: check via node balance.
        net = square_network(capacity=1e6)
        weights = np.random.default_rng(7).uniform(0.5, 2.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=1.0)
        dm = np.zeros((4, 4))
        dm[0, 2] = 10.0
        dm[1, 2] = 5.0
        loads = link_loads(net, routing, dm)
        inflow_t = sum(loads[e] for e in net.in_edges[2])
        outflow_t = sum(loads[e] for e in net.out_edges[2])
        assert inflow_t - outflow_t == pytest.approx(15.0)


def _reaches(net, mask, s, t):
    frontier = [s]
    seen = {s}
    while frontier:
        v = frontier.pop()
        if v == t:
            return True
        for e in net.out_edges[v]:
            if mask[e]:
                u = net.edges[e][1]
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return False
