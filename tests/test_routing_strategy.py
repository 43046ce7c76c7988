"""Tests for routing-strategy representation and validation."""

import numpy as np
import pytest

from repro.routing.strategy import (
    DestinationRouting,
    FlowRouting,
    RoutingValidationError,
    routing_from_function,
    validate_routing,
)
from tests.helpers import line_network, triangle_network


class TestFlowRouting:
    def test_ratio_lookup(self):
        net = line_network(3)
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 1)]] = 1.0
        vector[net.edge_index[(1, 2)]] = 1.0
        routing = FlowRouting(net, {(0, 2): vector})
        np.testing.assert_array_equal(routing.ratios(0, 2), vector)

    def test_missing_pair_raises_keyerror(self):
        routing = FlowRouting(line_network(3), {})
        with pytest.raises(KeyError):
            routing.ratios(0, 2)

    def test_rejects_wrong_vector_shape(self):
        with pytest.raises(ValueError, match="shape"):
            FlowRouting(line_network(3), {(0, 2): np.zeros(2)})

    def test_pair_range_checked(self):
        net = line_network(3)
        routing = FlowRouting(net, {(0, 2): np.zeros(net.num_edges)})
        with pytest.raises(ValueError, match="out of range"):
            routing.ratios(0, 7)
        with pytest.raises(ValueError, match="differ"):
            routing.ratios(1, 1)

    def test_flows_listing(self):
        net = line_network(3)
        routing = FlowRouting(net, {(0, 2): np.zeros(net.num_edges)})
        assert list(routing.flows()) == [(0, 2)]


class TestDestinationRouting:
    def test_same_ratios_for_all_sources(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 2)]] = 1.0
        table[2, net.edge_index[(1, 2)]] = 1.0
        routing = DestinationRouting(net, table)
        np.testing.assert_array_equal(routing.ratios(0, 2), routing.ratios(1, 2))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DestinationRouting(triangle_network(), np.zeros((2, 2)))


class TestValidateRouting:
    def _valid_triangle_routing(self):
        net = triangle_network()
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 1)]] = 0.5
        vector[net.edge_index[(0, 2)]] = 0.5
        vector[net.edge_index[(1, 2)]] = 1.0
        return net, FlowRouting(net, {(0, 2): vector})

    def test_valid_routing_passes(self):
        _, routing = self._valid_triangle_routing()
        validate_routing(routing, 0, 2)

    def test_negative_ratio_rejected(self):
        net = triangle_network()
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 2)]] = 1.2
        vector[net.edge_index[(0, 1)]] = -0.2
        routing = FlowRouting(net, {(0, 2): vector})
        with pytest.raises(RoutingValidationError, match="negative"):
            validate_routing(routing, 0, 2)

    def test_destination_must_absorb(self):
        net = triangle_network()
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 2)]] = 1.0
        vector[net.edge_index[(2, 1)]] = 1.0  # destination forwards!
        routing = FlowRouting(net, {(0, 2): vector})
        with pytest.raises(RoutingValidationError, match="absorb"):
            validate_routing(routing, 0, 2)

    def test_underflow_at_reachable_vertex(self):
        net = triangle_network()
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 1)]] = 1.0
        vector[net.edge_index[(1, 2)]] = 0.5  # loses half the flow
        routing = FlowRouting(net, {(0, 2): vector})
        with pytest.raises(RoutingValidationError, match="forwards"):
            validate_routing(routing, 0, 2)

    def test_unreachable_destination_rejected(self):
        net = triangle_network()
        routing = FlowRouting(net, {(0, 2): np.zeros(net.num_edges)})
        with pytest.raises(RoutingValidationError, match="unreachable"):
            validate_routing(routing, 0, 2)

    def test_off_path_vertices_may_be_zero(self):
        # Vertex 1 unused: all flow goes directly 0 -> 2.
        net = triangle_network()
        vector = np.zeros(net.num_edges)
        vector[net.edge_index[(0, 2)]] = 1.0
        routing = FlowRouting(net, {(0, 2): vector})
        validate_routing(routing, 0, 2)


class TestRoutingFromFunction:
    def test_materialises_pairs(self):
        net = triangle_network()

        def fn(s, t):
            vector = np.zeros(net.num_edges)
            if net.has_edge(s, t):
                vector[net.edge_index[(s, t)]] = 1.0
            return vector

        routing = routing_from_function(net, [(0, 1), (1, 2)], fn)
        assert set(routing.flows()) == {(0, 1), (1, 2)}
        validate_routing(routing, 0, 1)
