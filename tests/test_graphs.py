"""Tests for the Network model, the topology zoo and the generators."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from repro.graphs import (
    Network,
    TOPOLOGY_NAMES,
    abilene,
    barabasi_albert_network,
    erdos_renyi_network,
    nsfnet,
    random_connected_network,
    topology,
    waxman_network,
)
from repro.graphs.generators import different_graphs_pool, random_spanning_tree
from repro.graphs.zoo import ABILENE_LINKS, NSFNET_LINKS
from tests.helpers import line_network, square_network, triangle_network


class TestNetworkConstruction:
    def test_basic_attributes(self):
        net = Network(3, [(0, 1), (1, 2)], capacities=5.0)
        assert net.num_nodes == 3
        assert net.num_edges == 2
        np.testing.assert_allclose(net.capacities, [5.0, 5.0])

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            Network(1, [])

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Network(3, [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Network(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network(3, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Network(3, [(0, 5)])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            Network(3, [(0, 1)], capacities=[0.0])

    def test_rejects_wrong_capacity_length(self):
        with pytest.raises(ValueError, match="shape"):
            Network(3, [(0, 1), (1, 2)], capacities=[1.0])

    def test_capacities_immutable(self):
        net = Network(3, [(0, 1)], capacities=2.0)
        with pytest.raises(ValueError):
            net.capacities[0] = 9.0

    def test_incidence_arrays(self):
        net = Network(3, [(0, 1), (1, 2), (2, 0)])
        np.testing.assert_array_equal(net.senders, [0, 1, 2])
        np.testing.assert_array_equal(net.receivers, [1, 2, 0])
        assert net.out_edges[1] == (1,)
        assert net.in_edges[0] == (2,)
        assert net.edge_index[(2, 0)] == 2

    def test_neighbours(self):
        net = triangle_network()
        assert sorted(net.neighbours(0)) == [1, 2]

    def test_capacity_lookup(self):
        net = Network(3, [(0, 1)], capacities=[7.0])
        assert net.capacity(0, 1) == 7.0
        with pytest.raises(KeyError):
            net.capacity(1, 0)

    def test_has_edge(self):
        net = Network(3, [(0, 1)])
        assert net.has_edge(0, 1)
        assert not net.has_edge(1, 0)

    def test_equality_and_hash(self):
        a = Network(3, [(0, 1), (1, 2)])
        b = Network(3, [(0, 1), (1, 2)])
        c = Network(3, [(0, 1), (1, 2)], capacities=3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_with_capacities(self):
        net = triangle_network(10.0)
        doubled = net.with_capacities(20.0)
        assert doubled.edges == net.edges
        np.testing.assert_allclose(doubled.capacities, 20.0)


class TestNetworkConversion:
    def test_from_undirected_doubles_edges(self):
        net = Network.from_undirected(3, [(0, 1), (1, 2)])
        assert net.num_edges == 4
        assert net.has_edge(0, 1) and net.has_edge(1, 0)

    def test_from_undirected_per_link_capacities(self):
        net = Network.from_undirected(3, [(0, 1), (1, 2)], capacities=[5.0, 7.0])
        assert net.capacity(0, 1) == 5.0
        assert net.capacity(1, 0) == 5.0
        assert net.capacity(2, 1) == 7.0

    def test_networkx_roundtrip(self):
        net = square_network()
        back = Network.from_networkx(net.to_networkx())
        # Edge ids may be reordered; the edge/capacity *sets* must survive.
        assert back.num_nodes == net.num_nodes
        original = {e: net.capacities[i] for i, e in enumerate(net.edges)}
        restored = {e: back.capacities[i] for i, e in enumerate(back.edges)}
        assert original == restored

    def test_from_networkx_relabels_nodes(self):
        g = nx.Graph()
        g.add_edge("b", "a", capacity=3.0)
        net = Network.from_networkx(g)
        assert net.num_nodes == 2
        assert net.capacity(0, 1) == 3.0

    def test_strong_connectivity(self):
        assert triangle_network().is_strongly_connected()
        one_way = Network(3, [(0, 1), (1, 2)])
        assert not one_way.is_strongly_connected()
        two_cycles = Network(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not two_cycles.is_strongly_connected()
        assert not Network(3, [(0, 1), (1, 0)]).is_strongly_connected()

    def test_networkx_stays_off_the_import_path(self):
        driver = (
            "import sys\n"
            "import repro.api\n"
            "repro.api.get_scenario('fig6')\n"
            "print('networkx' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestShortestPaths:
    def test_unit_weight_distances(self):
        net = line_network(4)
        d = net.shortest_path_distances(target=3)
        np.testing.assert_allclose(d, [3.0, 2.0, 1.0, 0.0])

    def test_weighted_distances(self):
        net = triangle_network()
        weights = np.ones(net.num_edges)
        weights[net.edge_index[(0, 2)]] = 10.0  # direct hop expensive
        d = net.shortest_path_distances(weights, target=2)
        assert d[0] == pytest.approx(2.0)  # via node 1

    def test_full_matrix_agrees_with_networkx(self):
        net = square_network()
        matrix = net.shortest_path_distances()
        nx_lengths = dict(nx.all_pairs_shortest_path_length(net.to_networkx()))
        for u in range(net.num_nodes):
            for v in range(net.num_nodes):
                assert matrix[u, v] == pytest.approx(nx_lengths[u][v])

    def test_unreachable_is_inf(self):
        net = Network(3, [(0, 1), (1, 2)])
        d = net.shortest_path_distances(target=0)
        assert np.isinf(d[1]) and np.isinf(d[2])

    def test_rejects_negative_weights(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="non-negative"):
            net.shortest_path_distances(-np.ones(net.num_edges))

    def test_rejects_wrong_weight_shape(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="shape"):
            net.shortest_path_distances(np.ones(2))

    @pytest.mark.parametrize("target", [-1, 3])
    def test_rejects_out_of_range_target(self, target):
        # -1 must not wrap to the last node.
        with pytest.raises(ValueError, match=r"target must be in 0\.\.2"):
            triangle_network().shortest_path_distances(target=target)


class TestZoo:
    def test_abilene_shape(self):
        net = abilene()
        assert net.num_nodes == 11
        assert net.num_edges == 2 * len(ABILENE_LINKS) == 28
        assert net.is_strongly_connected()

    def test_nsfnet_shape(self):
        net = nsfnet()
        assert net.num_nodes == 14
        assert net.num_edges == 2 * len(NSFNET_LINKS) == 42
        assert net.is_strongly_connected()

    def test_topology_lookup_all_names(self):
        for name in TOPOLOGY_NAMES:
            net = topology(name)
            assert net.is_strongly_connected(), name
            assert net.name == name

    def test_topology_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology("fastly")

    def test_synthetic_topologies_deterministic(self):
        assert topology("geant-like") == topology("geant-like")

    def test_custom_capacity(self):
        assert abilene(capacity=123.0).capacities[0] == 123.0


class TestGenerators:
    def test_spanning_tree_edge_count(self):
        rng = np.random.default_rng(0)
        links = random_spanning_tree(8, rng)
        assert len(links) == 7

    def test_random_connected_exact_edge_count(self):
        net = random_connected_network(8, 4, seed=1)
        assert net.num_nodes == 8
        assert net.num_edges == 2 * (7 + 4)
        assert net.is_strongly_connected()

    def test_random_connected_rejects_excess_extras(self):
        with pytest.raises(ValueError, match="extra_edges"):
            random_connected_network(4, 100, seed=0)

    def test_erdos_renyi_connected_even_when_sparse(self):
        net = erdos_renyi_network(12, 0.05, seed=3)
        assert net.is_strongly_connected()

    def test_erdos_renyi_probability_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_network(5, 1.5, seed=0)

    def test_barabasi_albert_degree_bound(self):
        net = barabasi_albert_network(15, attachment=2, seed=4)
        assert net.is_strongly_connected()
        # 15 nodes: initial K3 (3 links) + 12 nodes x 2 links
        assert net.num_edges == 2 * (3 + 12 * 2)

    def test_barabasi_albert_attachment_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_network(5, attachment=5, seed=0)

    def test_waxman_connected(self):
        net = waxman_network(10, seed=5)
        assert net.is_strongly_connected()

    def test_generators_deterministic_under_seed(self):
        assert waxman_network(10, seed=5) == waxman_network(10, seed=5)
        assert erdos_renyi_network(10, 0.3, seed=5) == erdos_renyi_network(10, 0.3, seed=5)

    def test_different_graphs_pool_size_window(self):
        pool = different_graphs_pool(11, 6, seed=9)
        assert len(pool) == 6
        for net in pool:
            assert 5 <= net.num_nodes <= 22
            assert net.is_strongly_connected()

    def test_rejects_tiny_node_counts(self):
        with pytest.raises(ValueError):
            random_connected_network(1, 0, seed=0)
