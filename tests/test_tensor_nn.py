"""Tests for layers, initialisers and optimisers."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.init import get_initializer, glorot_uniform, he_normal, orthogonal, zeros
from repro.tensor.nn import MLP, LayerNorm, Linear, Module, Sequential, get_activation
from repro.tensor.optim import Adam, clip_grad_norm
from tests.helpers import check_gradient

RNG = np.random.default_rng(11)


class TestInitializers:
    def test_glorot_bounds(self):
        w = glorot_uniform(np.random.default_rng(0), 10, 20)
        limit = np.sqrt(6.0 / 30.0)
        assert w.shape == (10, 20)
        assert np.all(np.abs(w) <= limit)

    def test_he_normal_scale(self):
        w = he_normal(np.random.default_rng(0), 1000, 50)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000.0), rel=0.2)

    def test_orthogonal_columns(self):
        w = orthogonal(np.random.default_rng(0), 8, 8)
        np.testing.assert_allclose(w.T @ w, np.eye(8), atol=1e-10)

    def test_orthogonal_rectangular(self):
        w = orthogonal(np.random.default_rng(0), 4, 8)
        assert w.shape == (4, 8)

    def test_zeros(self):
        assert not zeros((3, 2)).any()

    def test_lookup_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            get_initializer("nope")

    def test_lookup_known(self):
        assert get_initializer("glorot") is glorot_uniform


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(3, 5, RNG)
        out = layer(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 5)

    def test_forward_matches_manual(self):
        layer = Linear(3, 2, RNG)
        x = RNG.normal(size=(3,))
        expected = x @ layer.weight.numpy() + layer.bias.numpy()
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_each_row_is_independent_of_the_batch(self, activation):
        # A row's result must not depend on how many rows share the call
        # (batch-invariant policy forwards rest on this), for any row count
        # and for a single 1-D sample.
        model = MLP([300, 37, 24, 5], np.random.default_rng(1), activation=activation)
        layer = Linear(37, 5, np.random.default_rng(2))
        data = np.random.default_rng(3).normal(size=(70, 300))
        for forward, x in ((model, data), (layer, data[:, :37])):
            alone = [forward(Tensor(row)).numpy() for row in x]
            for count in (1, 2, 7, 8, 9, 17, 33, 70):
                rows = forward(Tensor(x[:count])).numpy()
                for row, expected in zip(rows, alone):
                    np.testing.assert_array_equal(row, expected)

    def test_gain_scales_weights(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        base = Linear(4, 4, rng_a, gain=1.0)
        scaled = Linear(4, 4, rng_b, gain=0.01)
        np.testing.assert_allclose(scaled.weight.numpy(), 0.01 * base.weight.numpy())

    def test_gradients_reach_weight_and_bias(self):
        layer = Linear(3, 2, RNG)
        layer(Tensor(np.ones((5, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [5.0, 5.0])


class TestLayerNorm:
    def test_output_statistics(self):
        norm = LayerNorm(8)
        out = norm(Tensor(RNG.normal(size=(4, 8)) * 10 + 3)).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self):
        norm = LayerNorm(5)
        check_gradient(lambda t: norm(t), RNG.normal(size=(3, 5)))

    def test_scale_shift_trainable(self):
        norm = LayerNorm(4)
        params = list(norm.parameters())
        assert len(params) == 2

    @pytest.mark.parametrize("shape", [(896, 16), (64, 16), (3, 8), (1, 16), (5, 7, 33)])
    def test_bit_equal_to_the_np_mean_expression(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        x = rng.normal(size=shape) * 7.0 + 2.0
        norm = LayerNorm(shape[-1])
        norm.scale.data[:] = rng.normal(size=shape[-1])
        norm.shift.data[:] = rng.normal(size=shape[-1])
        centred = x - x.mean(axis=-1, keepdims=True)
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        expected = centred / np.sqrt(variance + norm.epsilon) * norm.scale.data + norm.shift.data
        np.testing.assert_array_equal(norm(Tensor(x)).numpy(), expected)


class TestMLP:
    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4], RNG)

    def test_output_shape(self):
        mlp = MLP([4, 8, 3], RNG)
        assert mlp(Tensor(np.ones((2, 4)))).shape == (2, 3)

    def test_parameter_count(self):
        mlp = MLP([4, 8, 3], RNG)
        expected = 4 * 8 + 8 + 8 * 3 + 3
        assert mlp.num_parameters() == expected

    def test_layer_norm_appends_parameters(self):
        mlp = MLP([4, 8, 3], RNG, layer_norm=True)
        expected = 4 * 8 + 8 + 8 * 3 + 3 + 3 + 3
        assert mlp.num_parameters() == expected

    def test_full_gradcheck(self):
        mlp = MLP([3, 6, 2], RNG, activation="tanh")
        check_gradient(lambda t: mlp(t), RNG.normal(size=(4, 3)))

    def test_output_activation(self):
        mlp = MLP([3, 4, 2], RNG, output_activation="sigmoid")
        out = mlp(Tensor(RNG.normal(size=(5, 3)))).numpy()
        assert np.all((out > 0) & (out < 1))

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            MLP([2, 2], RNG, activation="swish9000")

    def test_identity_activation(self):
        act = get_activation("identity")
        t = Tensor([1.0, -2.0])
        assert act(t) is t


class TestModule:
    def test_parameters_found_in_lists_and_dicts(self):
        class Holder(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, RNG), Linear(2, 2, RNG)]
                self.by_name = {"value": Linear(2, 1, RNG)}
                self.lone = Tensor(np.zeros(3), requires_grad=True)

        holder = Holder()
        assert len(list(holder.parameters())) == 2 * 2 + 2 + 1

    def test_duplicate_parameters_yielded_once(self):
        class Shared(Module):
            def __init__(self):
                self.a = Linear(2, 2, RNG)
                self.b = self.a  # aliased module

        assert len(list(Shared().parameters())) == 2

    def test_state_dict_roundtrip(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(0))
        x = Tensor(np.ones((1, 3)))
        before = mlp(x).numpy()
        params = [p.data.copy() for p in mlp.parameters()]
        state = mlp.state_dict()
        for p in mlp.parameters():
            p.data = p.data * 0.0
        mlp.load_state_dict(state)
        np.testing.assert_array_equal(mlp(x).numpy(), before)
        for p, original in zip(mlp.parameters(), params):
            np.testing.assert_array_equal(p.data, original)

    def test_load_state_dict_length_mismatch(self):
        mlp = MLP([3, 4, 2], RNG)
        with pytest.raises(ValueError, match="parameters"):
            mlp.load_state_dict([np.zeros((3, 4))])

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP([2, 2], RNG)
        state = mlp.state_dict()
        state[0] = np.zeros((5, 5))
        with pytest.raises(ValueError, match="shape mismatch"):
            mlp.load_state_dict(state)

    def test_zero_grad_clears_all(self):
        mlp = MLP([2, 2], RNG)
        mlp(Tensor(np.ones((1, 2)))).sum().backward()
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_sequential(self):
        model = Sequential(Linear(3, 4, RNG), Linear(4, 2, RNG))
        assert model(Tensor(np.ones((1, 3)))).shape == (1, 2)


class TestOptimizers:
    def _quadratic_setup(self):
        target = np.array([1.0, -2.0, 3.0])
        param = Tensor(np.zeros(3), requires_grad=True)
        return param, target

    def test_adam_descends_quadratic(self):
        param, target = self._quadratic_setup()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.numpy(), target, atol=1e-2)

    def test_adam_first_step_magnitude(self):
        # With bias correction the first Adam step is ~lr regardless of grad scale.
        param = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([param], lr=0.01)
        (param * 1000.0).sum().backward()
        opt.step()
        assert abs(param.numpy()[0] + 0.01) < 1e-6

    def test_optimizer_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_step_skips_parameters_without_grad(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        (a.sum() * 1.0).backward()
        opt.step()  # b has no grad; must not crash
        np.testing.assert_allclose(b.numpy(), 0.0)

    def test_set_lr(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam([param], lr=0.1)
        opt.set_lr(0.5)
        assert opt.lr == 0.5


class TestClipGradNorm:
    def test_norm_reported_and_clipped(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        a.grad = np.array([3.0, 4.0, 0.0])  # norm 5
        norm = clip_grad_norm([a], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0)

    def test_no_clip_when_under_limit(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        clip_grad_norm([a], max_norm=1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])

    def test_handles_missing_grads(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        assert clip_grad_norm([a], max_norm=1.0) == 0.0
