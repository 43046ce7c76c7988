"""Gradient-correctness tests for every differentiable op.

Each op gets (a) a forward-value check against numpy and (b) a numerical
gradient check through :func:`tests.helpers.check_gradient`.
"""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    concatenate,
    gather_rows,
    log_softmax,
    maximum,
    minimum,
    segment_sum,
    softmax,
    stack,
    where,
)
from tests.helpers import check_gradient

RNG = np.random.default_rng(7)


class TestArithmetic:
    def test_add_forward_and_grad(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda t: t + Tensor(np.ones((3, 4))), a)

    def test_add_broadcast_grad(self):
        a = RNG.normal(size=(4,))
        check_gradient(lambda t: Tensor(np.ones((3, 4))) + t, a)

    def test_sub_grad(self):
        check_gradient(lambda t: Tensor(np.ones((2, 2))) - t * 3.0, RNG.normal(size=(2, 2)))

    def test_mul_grad(self):
        b = RNG.normal(size=(3, 4))
        check_gradient(lambda t: t * Tensor(b), RNG.normal(size=(3, 4)))

    def test_div_grad_both_sides(self):
        b = RNG.uniform(1.0, 2.0, size=(3,))
        check_gradient(lambda t: t / Tensor(b), RNG.normal(size=(3,)))
        check_gradient(lambda t: Tensor(b) / t, RNG.uniform(1.0, 2.0, size=(3,)))

    def test_pow_grad(self):
        check_gradient(lambda t: t**3.0, RNG.uniform(0.5, 2.0, size=(4,)))

    def test_neg_grad(self):
        check_gradient(lambda t: -t, RNG.normal(size=(3,)))

    def test_radd_rmul_rsub_with_floats(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (1.0 + x) * 2.0 - 1.0
        np.testing.assert_allclose(y.numpy(), [3.0, 5.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_rtruediv(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        y = 8.0 / x
        np.testing.assert_allclose(y.numpy(), [4.0, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [-2.0, -0.5])


class TestComparisonOps:
    def test_maximum_forward(self):
        out = maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [3.0, 5.0])

    def test_maximum_grad_routes_to_winner(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_minimum_grad(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        minimum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_where_selects_and_routes_grad(self):
        mask = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(mask, a, b)
        np.testing.assert_allclose(out.numpy(), [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_clip_grad_zero_outside(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_abs_grad(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0])


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["exp", "log", "sqrt", "tanh", "sigmoid"])
    def test_pointwise_grads(self, name):
        x = RNG.uniform(0.5, 1.5, size=(3, 2))
        check_gradient(lambda t: getattr(t, name)(), x)

    def test_relu_grad(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_exp_log_roundtrip(self):
        x = RNG.uniform(0.5, 2.0, size=(4,))
        out = Tensor(x).exp().log()
        np.testing.assert_allclose(out.numpy(), x)


class TestLinearAlgebra:
    def test_matmul_2d_forward(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(3, 4))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.numpy(), a @ b)

    def test_matmul_grad_both_operands(self):
        b = RNG.normal(size=(3, 4))
        check_gradient(lambda t: t @ Tensor(b), RNG.normal(size=(2, 3)))
        a = RNG.normal(size=(2, 3))
        check_gradient(lambda t: Tensor(a) @ t, RNG.normal(size=(3, 4)))

    def test_matmul_vector_matrix_grad(self):
        b = RNG.normal(size=(3, 4))
        check_gradient(lambda t: t @ Tensor(b), RNG.normal(size=(3,)))

    def test_matmul_matrix_vector_grad(self):
        a = RNG.normal(size=(2, 3))
        check_gradient(lambda t: Tensor(a) @ t, RNG.normal(size=(3,)))

    def test_matmul_vector_vector(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a @ Tensor([3.0, 4.0])
        assert out.item() == pytest.approx(11.0)
        out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])

    def test_reshape_grad(self):
        check_gradient(lambda t: t.reshape((6,)) * 2.0, RNG.normal(size=(2, 3)))

    def test_reshape_accepts_varargs(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.flatten().shape == (6,)

    def test_transpose_grad(self):
        mult = Tensor(RNG.normal(size=(3, 2)))
        check_gradient(lambda t: t.T * mult, RNG.normal(size=(2, 3)))

    def test_transpose_with_axes(self):
        x = RNG.normal(size=(2, 3, 4))
        out = Tensor(x).transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        check_gradient(lambda t: t.transpose((2, 0, 1)), x)

    def test_getitem_slice_grad(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        x[1:3].sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_column(self):
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        x[:, 1].sum().backward()
        expected = np.zeros((4, 3))
        expected[:, 1] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestConcatStack:
    def test_concatenate_forward_and_grad(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_concatenate_axis0(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (4, 2)
        out.sum().backward()
        assert a.grad.shape == (1, 2)
        assert b.grad.shape == (3, 2)

    def test_stack_forward_and_grad(self):
        parts = [Tensor(np.full(3, float(i)), requires_grad=True) for i in range(4)]
        out = stack(parts)
        assert out.shape == (4, 3)
        (out * Tensor(RNG.normal(size=(4, 3)))).sum().backward()
        for p in parts:
            assert p.grad is not None
            assert p.grad.shape == (3,)

    def test_stack_of_scalars(self):
        parts = [Tensor(float(i), requires_grad=True) for i in range(3)]
        out = stack(parts)
        assert out.shape == (3,)
        out.sum().backward()
        assert all(p.grad == pytest.approx(1.0) for p in parts)


class TestReductions:
    def test_sum_all_grad(self):
        check_gradient(lambda t: t.sum() * Tensor(1.0), RNG.normal(size=(3, 4)))

    def test_sum_axis_grad(self):
        check_gradient(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))
        check_gradient(lambda t: t.sum(axis=1, keepdims=True), RNG.normal(size=(3, 4)))

    def test_mean_grad(self):
        check_gradient(lambda t: t.mean(axis=1), RNG.normal(size=(3, 4)))
        check_gradient(lambda t: t.mean(), RNG.normal(size=(5,)))

    def test_max_forward(self):
        x = np.array([[1.0, 5.0], [7.0, 2.0]])
        assert Tensor(x).max().item() == 7.0
        np.testing.assert_allclose(Tensor(x).max(axis=0).numpy(), [7.0, 5.0])

    def test_max_grad_unique(self):
        x = Tensor([1.0, 5.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_grad_ties_split(self):
        x = Tensor([3.0, 3.0, 1.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])

    def test_min_via_negated_max(self):
        x = Tensor([4.0, -1.0, 2.0], requires_grad=True)
        out = x.min()
        assert out.item() == pytest.approx(-1.0)
        out.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(RNG.normal(size=(5, 4))))
        np.testing.assert_allclose(out.numpy().sum(axis=1), np.ones(5))

    def test_softmax_grad(self):
        mult = Tensor(RNG.normal(size=(3, 4)))
        check_gradient(lambda t: softmax(t) * mult, RNG.normal(size=(3, 4)))

    def test_softmax_stable_for_large_inputs(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.numpy(), [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.normal(size=(2, 5))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).numpy(), np.log(softmax(Tensor(x)).numpy()), rtol=1e-10
        )

    def test_log_softmax_grad(self):
        mult = Tensor(RNG.normal(size=(3, 4)))
        check_gradient(lambda t: log_softmax(t) * mult, RNG.normal(size=(3, 4)))


class TestGatherScatterSegment:
    def test_gather_rows_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather_rows(x, [2, 0, 2])
        np.testing.assert_allclose(out.numpy(), [[6, 7, 8], [0, 1, 2], [6, 7, 8]])

    def test_gather_rows_grad_accumulates_repeats(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True)
        gather_rows(x, [2, 0, 2]).sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 2.0
        np.testing.assert_allclose(x.grad, expected)

    def test_segment_sum_forward(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = segment_sum(x, [0, 1, 0, 2], 3)
        np.testing.assert_allclose(out.numpy(), [[4.0], [2.0], [4.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        out = segment_sum(Tensor([[1.0]]), [2], 4)
        np.testing.assert_allclose(out.numpy(), [[0.0], [0.0], [1.0], [0.0]])

    def test_segment_sum_grad(self):
        ids = np.array([0, 1, 0, 2, 1])
        mult = Tensor(RNG.normal(size=(3, 2)))
        check_gradient(lambda t: segment_sum(t, ids, 3) * mult, RNG.normal(size=(5, 2)))
