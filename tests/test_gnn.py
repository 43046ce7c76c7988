"""Tests for GraphsTuple batching, GN blocks and encode-process-decode."""

import numpy as np
import pytest

from repro.gnn import EncodeProcessDecode, GNBlock, batch_graphs
from repro.tensor import Tensor
from tests.helpers import line_network, square_network, triangle_network

RNG = np.random.default_rng(21)


def tuple_for(nets, feature_width=2, seed=0):
    # Per-graph feature streams so a graph's features do not depend on how
    # many graphs share the batch (needed by the independence test).
    def rng_for(i):
        return np.random.default_rng((seed, i))

    return batch_graphs(
        nets,
        node_features=[
            rng_for(i).normal(size=(n.num_nodes, feature_width)) for i, n in enumerate(nets)
        ],
        edge_features=[
            rng_for(100 + i).normal(size=(n.num_edges, 1)) for i, n in enumerate(nets)
        ],
        global_features=[rng_for(200 + i).normal(size=(1,)) for i, _ in enumerate(nets)],
    )


class TestBatchGraphs:
    def test_single_graph_structure(self):
        net = triangle_network()
        g = tuple_for([net])
        assert g.num_graphs == 1
        assert g.num_nodes == 3
        assert g.num_edges == net.num_edges
        np.testing.assert_array_equal(g.senders, net.senders)

    def test_offsets_for_multiple_graphs(self):
        a, b = triangle_network(), line_network(4)
        g = tuple_for([a, b])
        assert g.num_nodes == 7
        assert g.num_edges == a.num_edges + b.num_edges
        # Second graph's senders must be offset by 3.
        np.testing.assert_array_equal(g.senders[a.num_edges :], b.senders + 3)
        np.testing.assert_array_equal(g.receivers[a.num_edges :], b.receivers + 3)
        np.testing.assert_array_equal(g.node_graph_ids, [0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(
            g.edge_graph_ids, np.repeat([0, 1], [a.num_edges, b.num_edges])
        )

    def test_incidence_built_once_per_topology_tuple_and_read_only(self):
        features = [np.ones((3, 1)), np.ones((4, 1))]
        first = batch_graphs([triangle_network(), square_network()], node_features=features)
        again = batch_graphs([triangle_network(), square_network()], node_features=features)
        for name in ("senders", "receivers", "node_graph_ids", "edge_graph_ids"):
            assert getattr(again, name) is getattr(first, name)
            assert not getattr(first, name).flags.writeable
        assert again.nodes is not first.nodes

    def test_heterogeneous_sizes_allowed(self):
        g = tuple_for([triangle_network(), square_network(), line_network(6)])
        assert g.num_graphs == 3
        assert g.globals_.shape[0] == 3

    def test_none_features_default_to_zeros(self):
        net = triangle_network()
        g = batch_graphs([net], node_features=[None])
        assert g.nodes.shape == (3, 1)
        assert g.edges.shape == (net.num_edges, 1)
        np.testing.assert_allclose(g.nodes.numpy(), 0.0)

    def test_1d_features_promoted(self):
        net = triangle_network()
        g = batch_graphs([net], node_features=[np.ones(3)])
        assert g.nodes.shape == (3, 1)

    def test_validation_errors(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="at least one"):
            batch_graphs([], node_features=[])
        with pytest.raises(ValueError, match="length"):
            batch_graphs([net], node_features=[None, None])
        with pytest.raises(ValueError, match="rows"):
            batch_graphs([net], node_features=[np.ones((5, 2))])

    def test_with_features_shares_structure(self):
        g = tuple_for([triangle_network()])
        g2 = g.with_features(nodes=Tensor(np.zeros((3, 4))))
        assert g2.senders is g.senders
        assert g2.edges is g.edges
        np.testing.assert_allclose(g2.nodes.numpy(), 0.0)


class TestGNBlock:
    def _block(self):
        return GNBlock.build(
            edge_in=1, node_in=2, global_in=1, rng=np.random.default_rng(0),
            hidden=8, out=4,
        )

    def test_output_shapes(self):
        g = tuple_for([triangle_network(), line_network(4)])
        out = self._block()(g)
        assert out.nodes.shape == (7, 4)
        assert out.edges.shape == (g.num_edges, 4)
        assert out.globals_.shape == (2, 4)

    def test_batch_independence(self):
        """Graphs in a batch must not influence each other."""
        a, b = triangle_network(), square_network()
        together = self._block()(tuple_for([a, b], seed=3))
        alone = self._block()(tuple_for([a], seed=3))
        np.testing.assert_allclose(
            together.nodes.numpy()[: a.num_nodes], alone.nodes.numpy(), atol=1e-10
        )
        np.testing.assert_allclose(
            together.globals_.numpy()[0], alone.globals_.numpy()[0], atol=1e-10
        )

    def test_gradients_reach_all_mlps(self):
        block = self._block()
        g = tuple_for([triangle_network()])
        out = block(g)
        (out.nodes.sum() + out.edges.sum() + out.globals_.sum()).backward()
        for mlp in (block.edge_model, block.node_model, block.global_model):
            assert all(p.grad is not None for p in mlp.parameters())

    def test_message_passing_propagates_information(self):
        """Changing one node's input features must affect its neighbours."""
        net = line_network(3)
        block = self._block()
        base_nodes = np.zeros((3, 2))
        changed = base_nodes.copy()
        changed[0, 0] = 5.0

        def run(node_feats):
            g = batch_graphs(
                [net],
                node_features=[node_feats],
                edge_features=[np.zeros((net.num_edges, 1))],
                global_features=[np.zeros(1)],
            )
            return block(g).nodes.numpy()

        delta = np.abs(run(changed) - run(base_nodes)).sum(axis=1)
        assert delta[1] > 1e-8  # neighbour sees the change after one step


class TestEncodeProcessDecode:
    def _model(self, steps=2, edge_out=1, global_out=1):
        return EncodeProcessDecode(
            node_in=2, edge_in=1, global_in=1,
            edge_out=edge_out, global_out=global_out,
            rng=np.random.default_rng(1), latent=8, hidden=8,
            num_processing_steps=steps,
        )

    def test_output_shapes(self):
        g = tuple_for([triangle_network(), line_network(5)])
        edge_out, global_out = self._model()(g)
        assert edge_out.shape == (g.num_edges, 1)
        assert global_out.shape == (2, 1)

    def test_edge_only_and_global_only(self):
        g = tuple_for([triangle_network()])
        edge_out, global_out = self._model(edge_out=1, global_out=0)(g)
        assert global_out is None
        assert edge_out is not None
        edge_out, global_out = self._model(edge_out=0, global_out=3)(g)
        assert edge_out is None
        assert global_out.shape == (1, 3)

    def test_receptive_field_grows_with_steps(self):
        """With K processing steps, node 0's change reaches K hops away."""
        net = line_network(6)

        def delta_at_distance(steps):
            model = EncodeProcessDecode(
                node_in=1, edge_in=1, global_in=1, edge_out=1, global_out=0,
                rng=np.random.default_rng(2), latent=4, hidden=4,
                num_processing_steps=steps,
            )

            def run(feat0):
                node_feats = np.zeros((6, 1))
                node_feats[0] = feat0
                g = batch_graphs(
                    [net],
                    node_features=[node_feats],
                    edge_features=[np.zeros((net.num_edges, 1))],
                    global_features=[np.zeros(1)],
                )
                edge_out, _ = model(g)
                return edge_out.numpy()

            diff = np.abs(run(3.0) - run(0.0)).ravel()
            far_edge = net.edge_index[(4, 5)]  # 4+ hops from node 0
            return diff[far_edge]

        assert delta_at_distance(1) == pytest.approx(0.0, abs=1e-12)

    def test_global_output_sees_whole_graph(self):
        # Globals aggregate everything, so even 1 step reacts to any node.
        net = line_network(6)
        model = self._model(steps=1, edge_out=0, global_out=1)

        def run(value):
            feats = np.zeros((6, 2))
            feats[5, 0] = value
            g = batch_graphs(
                [net],
                node_features=[feats],
                edge_features=[np.zeros((net.num_edges, 1))],
                global_features=[np.zeros(1)],
            )
            _, out = model(g)
            return float(out.numpy().squeeze())

        assert run(0.0) != pytest.approx(run(7.0))

    def test_parameter_count_independent_of_graph_size(self):
        model = self._model()
        count = model.num_parameters()
        # Same model applies to any topology; the count is fixed.
        for net in (triangle_network(), square_network(), line_network(9)):
            g = tuple_for([net])
            model(g)
        assert model.num_parameters() == count

    def test_validation(self):
        with pytest.raises(ValueError, match="processing"):
            self._model(steps=0)
        with pytest.raises(ValueError, match="edge_out/global_out"):
            EncodeProcessDecode(
                node_in=1, edge_in=1, global_in=1, edge_out=0, global_out=0,
                rng=np.random.default_rng(0),
            )

    def test_end_to_end_gradient(self):
        model = self._model()
        g = tuple_for([square_network()])
        edge_out, global_out = model(g)
        (edge_out.sum() + global_out.sum()).backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
