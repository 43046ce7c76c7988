"""The cached CSR scatter and the flat Adam step against their loop oracles, bit for bit.

``segment_sum``'s forward and a row gather's backward are one cached CSR
product; ``Adam.step`` runs over flat moment buffers.  Each must equal the
``np.add.at`` / per-parameter form it replaced (``tests/helpers.py``) in
every bit, so these compare ``.view(np.uint64)``.
"""

import numpy as np
import pytest

from repro.gnn import batch_graphs
from repro.tensor import Tensor, gather_rows, segment_sum
from repro.tensor.operation import _SCATTER_CACHE
from repro.tensor.optim import Adam
from tests.helpers import (
    line_network,
    reference_adam_step,
    reference_gather_rows_grad,
    reference_segment_sum,
    square_network,
    triangle_network,
)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def special_values(shape, seed: int) -> np.ndarray:
    """Normal draws salted with -0.0, +0.0, ±inf and NaN."""
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.normal(size=shape))
    salt = np.asarray(rng.integers(0, 8, size=shape))
    x[salt == 0] = -0.0
    x[salt == 1] = 0.0
    x[salt == 2] = np.inf
    x[salt == 3] = -np.inf
    x[salt == 4] = np.nan
    return x


# (ids, num_segments): repeated and unsorted ids, empty segments, no rows.
ID_CASES = {
    "unsorted-repeats": (np.array([3, 0, 3, 1, 0, 3, 2, 1, 3]), 4),
    "empty-segments": (np.array([5, 1, 5, 1]), 7),
    "one-segment": (np.zeros(6, dtype=np.int64), 1),
    "no-rows": (np.zeros(0, dtype=np.int64), 3),
    "batch-like": (np.repeat(np.arange(16), 7)[::-1].copy(), 16),
}


def inputs(num_rows: int, layout: str, seed: int) -> np.ndarray:
    if layout == "1-D":
        return special_values((num_rows,), seed)
    if layout == "2-D":
        return special_values((num_rows, 5), seed)
    if layout == "column":
        return special_values((num_rows, 1), seed)
    if layout == "strided":  # a non-contiguous column slice
        return special_values((num_rows, 10), seed)[:, ::2]
    return np.asfortranarray(special_values((num_rows, 5), seed))


LAYOUTS = ["1-D", "2-D", "column", "strided", "fortran"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestScatterMatchesAddAt:
    @pytest.mark.parametrize("case", sorted(ID_CASES))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_segment_sum_forward(self, case, layout):
        ids, num_segments = ID_CASES[case]
        for seed in range(5):
            x = inputs(len(ids), layout, seed)
            out = segment_sum(Tensor(x), ids, num_segments).numpy()
            assert_bits_equal(out, reference_segment_sum(x, ids, num_segments))

    @pytest.mark.parametrize("case", sorted(ID_CASES))
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_gather_rows_backward(self, case, layout):
        ids, num_rows = ID_CASES[case]
        for seed in range(5):
            upstream = inputs(len(ids), layout, seed)
            a = Tensor(np.zeros((num_rows,) + upstream.shape[1:]), requires_grad=True)
            gather_rows(a, ids).backward(upstream)
            expected = reference_gather_rows_grad(upstream, ids, a.shape)
            assert_bits_equal(a.grad, expected)

    def test_negative_zero_sums_to_positive_zero_as_add_at_does(self):
        x = np.array([[-0.0], [-0.0], [1.0]])
        out = segment_sum(Tensor(x), [0, 0, 1], 3).numpy()
        assert_bits_equal(out, reference_segment_sum(x, np.array([0, 0, 1]), 3))
        assert not np.signbit(out[0, 0])

    def test_three_dimensional_rows(self):
        ids = np.array([2, 0, 2, 1])
        x = special_values((4, 3, 2), seed=5)
        out = segment_sum(Tensor(x), ids, 3).numpy()
        assert_bits_equal(out, reference_segment_sum(x, ids, 3))

    def test_out_of_range_ids_raise(self):
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            segment_sum(Tensor(np.ones((2, 1))), [0, 2], 2)
        with pytest.raises(IndexError):
            segment_sum(Tensor(np.ones((2, 1))), [-1, 0], 2)


class TestScatterCache:
    def test_equal_ids_share_one_pattern(self):
        ids = np.array([4, 1, 1, 0, 9])
        first = _SCATTER_CACHE.pattern(ids, 10)
        assert _SCATTER_CACHE.pattern(ids.copy(), 10) is first
        assert _SCATTER_CACHE.pattern(ids, 11) is not first

    def test_a_batch_reuses_its_matrices_across_forward_and_backward(self):
        _SCATTER_CACHE.clear()
        graph = batch_graphs(
            [triangle_network(), square_network(), line_network(4)],
            node_features=[np.ones((3, 2)), np.ones((4, 2)), np.ones((4, 2))],
        )
        x = Tensor(np.ones((graph.num_edges, 3)), requires_grad=True)
        segment_sum(x, graph.edge_graph_ids, graph.num_graphs).sum().backward()
        misses = _SCATTER_CACHE.misses
        nodes = Tensor(np.ones((graph.num_nodes, 3)), requires_grad=True)
        segment_sum(x, graph.edge_graph_ids, graph.num_graphs).sum().backward()
        gather_rows(nodes, graph.receivers).sum().backward()
        segment_sum(x, graph.receivers, graph.num_nodes).sum().backward()
        assert _SCATTER_CACHE.misses == misses + 1  # only (num_nodes, receivers) was new
        gather_rows(nodes, graph.receivers).sum().backward()
        assert _SCATTER_CACHE.misses == misses + 1


class TestFlatAdam:
    def _parameters(self):
        rng = np.random.default_rng(3)
        shapes = [(3, 4), (4,), (), (2, 2, 2), (1,)]
        return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def _twins(self):
        params = self._parameters()
        twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        return params, twins

    def test_matches_the_per_parameter_loop_bit_for_bit(self):
        params, twins = self._twins()
        opt = Adam(params, lr=0.01)
        ms = [np.zeros_like(p.data) for p in twins]
        vs = [np.zeros_like(p.data) for p in twins]
        lrs = [0.01, 0.01, 0.004, 0.004, 0.02]
        for step, lr in enumerate(lrs, start=1):
            opt.set_lr(lr)
            for i, (p, twin) in enumerate(zip(params, twins)):
                grad = None if (step == 3 and i == 1) else special_values(p.shape, step * 10 + i)
                if grad is not None:
                    grad[~np.isfinite(grad)] = 0.5  # non-finite grads stop PPO first
                p.grad = None if grad is None else grad.copy()
                twin.grad = None if grad is None else grad.copy()
            opt.step()
            reference_adam_step(twins, ms, vs, step, lr)
            for p, twin in zip(params, twins):
                assert_bits_equal(p.data, twin.data)
        assert opt._step_count == len(lrs)

    def test_a_parameter_without_grad_keeps_its_moments_and_data(self):
        params, twins = self._twins()
        opt = Adam(params, lr=0.1)
        ms = [np.zeros_like(p.data) for p in twins]
        vs = [np.zeros_like(p.data) for p in twins]
        for step in (1, 2, 3):
            for i, (p, twin) in enumerate(zip(params, twins)):
                grad = None if i == 0 and step > 1 else np.full(p.shape, 0.25 * step)
                p.grad, twin.grad = grad, None if grad is None else grad.copy()
            frozen = params[0].data.copy()
            opt.step()
            reference_adam_step(twins, ms, vs, step, 0.1)
            if step > 1:
                assert_bits_equal(params[0].data, frozen)
            for p, twin in zip(params, twins):
                assert_bits_equal(p.data, twin.data)
        bounds = opt._bounds
        for i, (m, v) in enumerate(zip(ms, vs)):
            assert_bits_equal(opt._m[bounds[i] : bounds[i + 1]], m.ravel())
            assert_bits_equal(opt._v[bounds[i] : bounds[i + 1]], v.ravel())

    def test_a_step_with_no_grads_changes_nothing(self):
        params = self._parameters()
        before = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.1)
        opt.step()
        for p, original in zip(params, before):
            assert_bits_equal(p.data, original)
        assert not opt._m.any() and not opt._v.any()
