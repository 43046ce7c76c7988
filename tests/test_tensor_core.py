"""Tests for the autodiff core: Tensor mechanics, backward pass, no_grad."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad
from repro.tensor.tensor import unbroadcast


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 2)))
        assert len(t) == 3
        assert t.size == 6
        assert t.ndim == 2

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_detach_shares_data_but_not_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_ensure_passes_through_tensors(self):
        t = Tensor(1.0)
        assert Tensor.ensure(t) is t
        assert isinstance(Tensor.ensure(2.0), Tensor)


class TestBackwardMechanics:
    def test_simple_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(8.0)

    def test_zero_grad_resets(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        y = a + b
        y.backward()
        assert x.grad == pytest.approx(8.0)

    def test_shared_subexpression_used_twice(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * x  # reused twice: y = a + a -> dy/dx = 2 * 2x = 8
        y = a + a
        y.backward()
        assert x.grad == pytest.approx(8.0)

    def test_backward_on_non_scalar_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError, match="non-scalar"):
            y.backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor(1.0).backward()

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_constant_branches_do_not_receive_grad(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0)
        (x * c).backward()
        assert c.grad is None


class TestNoGrad:
    def test_no_grad_blocks_graph_construction(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_leaf_created_under_no_grad_is_constant(self):
        with no_grad():
            t = Tensor(1.0, requires_grad=True)
        assert not t.requires_grad

    def test_no_grad_is_per_thread(self):
        # A holds no_grad while B builds a leaf, then B's own no_grad block
        # outlives A's.  Neither thread may see the other's switch.
        a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_inside.set()
                assert b_inside.wait(5.0)
            a_left.set()

        def thread_b():
            assert a_inside.wait(5.0)
            seen["leaf"] = Tensor([1.0], requires_grad=True)
            with no_grad():
                b_inside.set()
                assert a_left.wait(5.0)
            seen["after"] = is_grad_enabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert seen["leaf"].requires_grad
        assert seen["after"] and is_grad_enabled()


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_stretched_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out == pytest.approx(6.0)

    def test_broadcast_gradients_in_expression(self):
        bias = Tensor([1.0, 2.0], requires_grad=True)
        x = Tensor(np.ones((3, 2)))
        y = (x + bias).sum()
        y.backward()
        np.testing.assert_allclose(bias.grad, [3.0, 3.0])
