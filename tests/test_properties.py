"""Property-based tests (hypothesis) on the library's core invariants.

These encode the paper's formal requirements as properties over random
graphs, weights and demands:

* softmin is always a probability distribution favouring small inputs;
* softmin routing always yields a valid, loop-free, delivering routing;
* DAG pruning is always acyclic and preserves reachability;
* the LP optimum lower-bounds every concrete routing's utilisation;
* flow is conserved end-to-end through the simulator;
* autodiff segment ops agree with their numpy definitions;
* the array graph kernels (SP/ECMP tie masks, the bridge pass behind link
  removal) equal the Python loop oracles in ``tests/helpers.py`` exactly;
* every table built on the kernel keep mask and per-vertex normaliser
  (proportional, LP-derived, frontier softmin) equals its per-vertex loop
  oracle: exactly when every share is exact (the proportional tables under
  unit weights and capacities), to 1e-12 otherwise.  The segment reduction
  adds a vertex's first share to the sum of the rest while the oracles' sum
  runs left to right, so three or more inexact shares may differ in the
  last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import link_loads, max_link_utilisation
from repro.graphs.generators import random_connected_network
from repro.graphs.kernels import batch_distances_to_targets, decreasing_distance_mask
from repro.graphs.modifications import removable_links, remove_random_edge
from repro.graphs.network import Network
from repro.routing.dag import prune_graph_frontier
from repro.routing.oblivious import lp_derived_routing
from repro.routing.proportional import capacity_proportional_routing, inverse_weight_routing
from repro.routing.shortest_path import ecmp_routing, shortest_path_routing
from repro.routing.softmin import softmin, softmin_routing
from repro.routing.strategy import validate_routing
from repro.tensor import Tensor, segment_mean, segment_sum
from repro.traffic import bimodal_matrix
from tests.helpers import (
    reference_ecmp_table,
    reference_lp_derived_table,
    reference_proportional_table,
    reference_ratios_for_mask,
    reference_removable_links,
    reference_shortest_path_table,
)

# Keep deadlines generous: LP solves inside properties are slow-ish.
PROPERTY_SETTINGS = dict(max_examples=20, deadline=None)


def network_for(seed: int, num_nodes: int, extra_edges: int):
    extra = min(extra_edges, num_nodes * (num_nodes - 1) // 2 - (num_nodes - 1))
    return random_connected_network(num_nodes, extra, seed=seed, capacity=100.0)


@st.composite
def graph_and_weights(draw):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(4, 9))
    extra = draw(st.integers(1, 6))
    net = network_for(seed, num_nodes, extra)
    weights = draw(
        st.lists(
            st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
            min_size=net.num_edges,
            max_size=net.num_edges,
        )
    )
    return net, np.asarray(weights)


@st.composite
def directed_graph_and_weights(draw):
    """Random digraphs, often not strongly connected, under four weight kinds.

    "tiny" weights sit below the 1e-9 tie tolerance, where only the
    ``tail != target`` rule keeps a target's own out-edges off its table.
    """
    num_nodes = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=24, unique=True))
    net = Network(num_nodes, edges)
    kind = draw(st.sampled_from(["unit", "tied", "real", "tiny"]))
    if kind == "unit":
        return net, None
    if kind == "tied":
        values = st.integers(1, 3).map(float)
    elif kind == "real":
        values = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)
    else:
        values = st.floats(1e-12, 1e-10)
    weights = draw(st.lists(values, min_size=net.num_edges, max_size=net.num_edges))
    return net, np.asarray(weights)


@st.composite
def unit_or_random_network(draw, max_nodes=9):
    """``(network, weights, unit)``: unit weights and capacities, or random ones."""
    seed = draw(st.integers(0, 10_000))
    net = network_for(seed, draw(st.integers(4, max_nodes)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        return net, np.ones(net.num_edges), True
    rng = np.random.default_rng(seed)
    net = net.with_capacities(rng.uniform(1.0, 100.0, net.num_edges))
    return net, rng.uniform(0.05, 20.0, net.num_edges), False


def assert_tables_match(actual, expected, exact):
    if exact:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)


@st.composite
def undirected_network(draw):
    """Random link sets: trees, cyclic and disconnected graphs alike."""
    num_nodes = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    links = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20, unique=True))
    return Network.from_undirected(num_nodes, links, 7.0, name="prop")


class TestSoftminProperties:
    @given(
        values=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12),
        gamma=st.floats(0.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmin_is_probability_vector(self, values, gamma):
        out = softmin(np.asarray(values), gamma)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0.0)

    @given(
        values=st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=8, unique=True),
        gamma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmin_favours_minimum(self, values, gamma):
        arr = np.asarray(values)
        out = softmin(arr, gamma)
        assert out[np.argmin(arr)] == pytest.approx(out.max())


class TestDagProperties:
    @given(data=graph_and_weights())
    @settings(**PROPERTY_SETTINGS)
    def test_distance_pruning_acyclic_and_covering(self, data):
        net, weights = data
        import networkx as nx

        masks = decreasing_distance_mask(net, batch_distances_to_targets(net, weights))
        for target, mask in enumerate(masks):
            g = nx.DiGraph()
            g.add_nodes_from(range(net.num_nodes))
            g.add_edges_from(net.edges[e] for e in range(net.num_edges) if mask[e])
            assert nx.is_directed_acyclic_graph(g)
            for v in range(net.num_nodes):
                if v != target:
                    assert nx.has_path(g, v, target)

    @given(data=graph_and_weights(), source=st.integers(0, 8), target=st.integers(0, 8))
    @settings(**PROPERTY_SETTINGS)
    def test_frontier_pruning_acyclic_with_path(self, data, source, target):
        net, weights = data
        source %= net.num_nodes
        target %= net.num_nodes
        if source == target:
            return
        import networkx as nx

        mask = prune_graph_frontier(net, weights, source, target)
        g = nx.DiGraph()
        g.add_nodes_from(range(net.num_nodes))
        g.add_edges_from(net.edges[e] for e in range(net.num_edges) if mask[e])
        assert nx.is_directed_acyclic_graph(g)
        assert nx.has_path(g, source, target)


class TestRoutingProperties:
    @given(data=graph_and_weights(), gamma=st.floats(0.2, 10.0))
    @settings(**PROPERTY_SETTINGS)
    def test_softmin_routing_valid_for_every_flow(self, data, gamma):
        net, weights = data
        routing = softmin_routing(net, weights, gamma=gamma)
        for s in range(net.num_nodes):
            for t in range(net.num_nodes):
                if s != t:
                    validate_routing(routing, s, t)

    @given(data=graph_and_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_lp_lower_bounds_all_routings(self, data, seed):
        net, weights = data
        dm = bimodal_matrix(net.num_nodes, seed=seed, low_mean=5.0, high_mean=10.0, std=1.0)
        optimal = solve_optimal_max_utilisation(net, dm).max_utilisation
        for routing in (
            softmin_routing(net, weights, gamma=2.0),
            shortest_path_routing(net),
            ecmp_routing(net),
        ):
            achieved = max_link_utilisation(net, routing, dm)
            assert achieved >= optimal - 1e-7

    @given(data=graph_and_weights(), seed=st.integers(0, 1000))
    @settings(**PROPERTY_SETTINGS)
    def test_flow_conservation_through_simulator(self, data, seed):
        net, weights = data
        dm = bimodal_matrix(net.num_nodes, seed=seed, low_mean=5.0, high_mean=10.0, std=1.0)
        routing = softmin_routing(net, weights, gamma=1.5)
        loads = link_loads(net, routing, dm)
        # Every destination absorbs exactly its incoming demand: check the
        # global balance node-by-node: inflow - outflow == received - sent.
        for v in range(net.num_nodes):
            inflow = sum(loads[e] for e in net.in_edges[v])
            outflow = sum(loads[e] for e in net.out_edges[v])
            received = dm[:, v].sum()
            sent = dm[v, :].sum()
            assert inflow - outflow == pytest.approx(received - sent, abs=1e-6)


class TestGraphKernelProperties:
    @given(data=directed_graph_and_weights())
    @settings(max_examples=150, deadline=None)
    def test_shortest_path_tables_equal_the_loop_oracles(self, data):
        net, weights = data
        assert np.array_equal(
            shortest_path_routing(net, weights).destination_table(),
            reference_shortest_path_table(net, weights),
        )
        assert np.array_equal(
            ecmp_routing(net, weights).destination_table(),
            reference_ecmp_table(net, weights),
        )

    @given(net=undirected_network(), seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_link_removal_equals_the_networkx_oracle(self, net, seed):
        expected = reference_removable_links(net)
        assert removable_links(net) == expected  # same links, same order

        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        removed = remove_random_edge(net, rng)
        if not expected:
            assert removed is None
            return
        drop = expected[int(oracle_rng.integers(0, len(expected)))]
        links = {tuple(sorted(edge)) for edge in net.edges} - {drop}
        assert removed == Network.from_undirected(net.num_nodes, sorted(links), 7.0)
        assert removed.name == "prop-e"
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestNormalisedTableProperties:
    @given(data=unit_or_random_network())
    @settings(max_examples=60, deadline=None)
    def test_proportional_tables_equal_the_loop_oracle(self, data):
        net, weights, unit = data
        assert_tables_match(
            inverse_weight_routing(net, weights).destination_table(),
            reference_proportional_table(net, weights, 1.0 / weights),
            unit,
        )
        assert_tables_match(
            capacity_proportional_routing(net).destination_table(),
            reference_proportional_table(net, np.ones(net.num_edges), net.capacities),
            unit,
        )

    @given(data=unit_or_random_network(max_nodes=6), seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_lp_derived_table_equals_the_loop_oracle(self, data, seed):
        net, _, _ = data
        dm = bimodal_matrix(net.num_nodes, seed=seed, low_mean=5.0, high_mean=10.0, std=1.0)
        dm[:, seed % net.num_nodes] = 0.0  # one destination takes the all-ECMP row
        assert_tables_match(
            lp_derived_routing(net, dm).destination_table(),
            reference_lp_derived_table(net, dm),
            exact=False,
        )

    @given(data=unit_or_random_network(), gamma=st.floats(0.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_frontier_softmin_equals_the_loop_oracle(self, data, gamma):
        net, weights, _ = data
        routing = softmin_routing(net, weights, gamma=gamma, pruner="frontier")
        for s, t in routing.flows():
            mask = prune_graph_frontier(net, weights, s, t)
            expected = reference_ratios_for_mask(net, weights, mask, t, gamma)
            assert_tables_match(routing.ratios(s, t), expected, exact=False)


class TestSegmentOpProperties:
    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
        num_segments=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_sum_matches_numpy(self, values, num_segments, seed):
        arr = np.asarray(values)[:, None]
        ids = np.random.default_rng(seed).integers(0, num_segments, size=len(values))
        out = segment_sum(Tensor(arr), ids, num_segments).numpy()
        expected = np.zeros((num_segments, 1))
        np.add.at(expected, ids, arr)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
        num_segments=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_mean_bounded_by_extremes(self, values, num_segments, seed):
        arr = np.asarray(values)[:, None]
        ids = np.random.default_rng(seed).integers(0, num_segments, size=len(values))
        out = segment_mean(Tensor(arr), ids, num_segments).numpy().ravel()
        for segment in range(num_segments):
            members = arr.ravel()[ids == segment]
            if members.size:
                assert members.min() - 1e-9 <= out[segment] <= members.max() + 1e-9
            else:
                assert out[segment] == 0.0


class TestDemandProperties:
    @given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bimodal_always_valid_demand_matrix(self, n, seed):
        dm = bimodal_matrix(n, seed=seed)
        assert dm.shape == (n, n)
        assert np.all(dm >= 0.0)
        assert np.all(np.diag(dm) == 0.0)
