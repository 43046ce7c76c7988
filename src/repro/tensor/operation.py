"""Operation classes for the reverse-mode tape.

Each differentiable op is a small class instance attached to the output
:class:`~repro.tensor.tensor.Tensor` (its ``_op`` slot).  The instance holds
the parent tensors plus whatever forward state the gradient needs (masks,
cached outputs, indices), and its :meth:`Operation.backward` returns
``(parent, parent_gradient)`` pairs in a fixed order.

This replaces the earlier closure-per-op design: an instance with
``__slots__`` is cheaper to build than a closure capturing locals, the cached
state is explicit, and — because the instance is only constructed when
gradients are being recorded — forward passes under ``no_grad`` skip the
mask/bookkeeping work entirely.

The gradient formulas are intentionally identical, operation by operation, to
the previous implementation: training runs must stay bit-for-bit reproducible
across the refactor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from repro.tensor.tensor import unbroadcast
from repro.utils.caching import KeyedLRU


class Operation:
    """Base class: ``parents`` plus a ``backward(grad)`` returning pairs."""

    __slots__ = ("parents",)

    def __init__(self, parents: tuple):
        self.parents = parents

    def backward(self, grad: np.ndarray):
        """Return ``(parent, parent_grad)`` pairs for the upstream ``grad``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


class Add(Operation):
    __slots__ = ()

    def backward(self, grad):
        a, b = self.parents
        return (
            (a, unbroadcast(grad, a.data.shape)),
            (b, unbroadcast(grad, b.data.shape)),
        )


class Sub(Operation):
    __slots__ = ()

    def backward(self, grad):
        a, b = self.parents
        return (
            (a, unbroadcast(grad, a.data.shape)),
            (b, unbroadcast(-grad, b.data.shape)),
        )


class Mul(Operation):
    __slots__ = ()

    def backward(self, grad):
        a, b = self.parents
        return (
            (a, unbroadcast(grad * b.data, a.data.shape)),
            (b, unbroadcast(grad * a.data, b.data.shape)),
        )


class Div(Operation):
    __slots__ = ()

    def backward(self, grad):
        a, b = self.parents
        return (
            (a, unbroadcast(grad / b.data, a.data.shape)),
            (b, unbroadcast(-grad * a.data / (b.data**2), b.data.shape)),
        )


class Power(Operation):
    __slots__ = ("exponent",)

    def __init__(self, parents, exponent):
        self.parents = parents
        self.exponent = exponent

    def backward(self, grad):
        (a,) = self.parents
        return ((a, grad * self.exponent * a.data ** (self.exponent - 1.0)),)


class MaximumMinimum(Operation):
    """Shared backward for elementwise max/min: ``a_wins`` decides ties."""

    __slots__ = ("a_wins",)

    def __init__(self, parents, a_wins):
        self.parents = parents
        self.a_wins = a_wins

    def backward(self, grad):
        a, b = self.parents
        a_wins = self.a_wins
        return (
            (a, unbroadcast(grad * a_wins, a.data.shape)),
            (b, unbroadcast(grad * ~a_wins, b.data.shape)),
        )


class Where(Operation):
    __slots__ = ("mask",)

    def __init__(self, parents, mask):
        self.parents = parents
        self.mask = mask

    def backward(self, grad):
        a, b = self.parents
        mask = self.mask
        return (
            (a, unbroadcast(grad * mask, a.data.shape)),
            (b, unbroadcast(grad * ~mask, b.data.shape)),
        )


class Clip(Operation):
    __slots__ = ("inside",)

    def __init__(self, parents, inside):
        self.parents = parents
        self.inside = inside

    def backward(self, grad):
        return ((self.parents[0], grad * self.inside),)


class Absolute(Operation):
    __slots__ = ("sign",)

    def __init__(self, parents, sign):
        self.parents = parents
        self.sign = sign

    def backward(self, grad):
        return ((self.parents[0], grad * self.sign),)


# ---------------------------------------------------------------------------
# Pointwise nonlinearities
# ---------------------------------------------------------------------------


class Exp(Operation):
    __slots__ = ("out",)

    def __init__(self, parents, out):
        self.parents = parents
        self.out = out

    def backward(self, grad):
        return ((self.parents[0], grad * self.out),)


class Log(Operation):
    __slots__ = ()

    def backward(self, grad):
        (a,) = self.parents
        return ((a, grad / a.data),)


class Sqrt(Operation):
    __slots__ = ("out",)

    def __init__(self, parents, out):
        self.parents = parents
        self.out = out

    def backward(self, grad):
        return ((self.parents[0], grad * 0.5 / self.out),)


class Tanh(Operation):
    __slots__ = ("out",)

    def __init__(self, parents, out):
        self.parents = parents
        self.out = out

    def backward(self, grad):
        return ((self.parents[0], grad * (1.0 - self.out**2)),)


class ReLU(Operation):
    __slots__ = ("positive",)

    def __init__(self, parents, positive):
        self.parents = parents
        self.positive = positive

    def backward(self, grad):
        return ((self.parents[0], grad * self.positive),)


class Sigmoid(Operation):
    __slots__ = ("out",)

    def __init__(self, parents, out):
        self.parents = parents
        self.out = out

    def backward(self, grad):
        out = self.out
        return ((self.parents[0], grad * out * (1.0 - out)),)


# ---------------------------------------------------------------------------
# Linear algebra / shape
# ---------------------------------------------------------------------------


class MatMul(Operation):
    __slots__ = ()

    def backward(self, grad):
        a, b = self.parents
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 2:
            return ((a, grad @ b_data.T), (b, np.outer(a_data, grad)))
        if a_data.ndim == 2 and b_data.ndim == 1:
            return ((a, np.outer(grad, b_data)), (b, a_data.T @ grad))
        if a_data.ndim == 1 and b_data.ndim == 1:
            return ((a, grad * b_data), (b, grad * a_data))
        return (
            (a, grad @ np.swapaxes(b_data, -1, -2)),
            (b, np.swapaxes(a_data, -1, -2) @ grad),
        )


class Linear(Operation):
    """Fused affine map ``x @ w + b`` — one node instead of MatMul + Add.

    Dense layers dominate every policy forward, so halving their node count
    measurably shrinks both tape construction and the backward walk.  The
    gradient formulas are exactly the MatMul and Add rules composed (the
    upstream gradient passes through the bias add unchanged), so gradients
    are bit-identical to the unfused pair's; the forward multiplies each
    row on its own (:func:`repro.tensor.ops._affine`).  ``w`` is always the
    2-D layer weight; ``x`` is a single sample (1-D) or a batch (2-D).
    """

    __slots__ = ()

    def backward(self, grad):
        return _affine_grads(self.parents, grad)


def _affine_grads(parents, grad):
    """The MatMul + Add gradient rules for ``x @ w + b`` given ``d(pre)``."""
    x, w, b = parents
    x_data, w_data = x.data, w.data
    if x_data.ndim == 1:
        return ((x, grad @ w_data.T), (w, np.outer(x_data, grad)), (b, grad))
    return ((x, grad @ w_data.T), (w, x_data.T @ grad), (b, grad.sum(axis=0)))


class LinearReLU(Operation):
    """``relu(x @ w + b)`` fused into one node (hidden MLP layers)."""

    __slots__ = ("positive",)

    def __init__(self, parents, positive):
        self.parents = parents
        self.positive = positive

    def backward(self, grad):
        return _affine_grads(self.parents, grad * self.positive)


class LinearTanh(Operation):
    """``tanh(x @ w + b)`` fused into one node (hidden MLP layers)."""

    __slots__ = ("out",)

    def __init__(self, parents, out):
        self.parents = parents
        self.out = out

    def backward(self, grad):
        return _affine_grads(self.parents, grad * (1.0 - self.out**2))


class LayerNorm(Operation):
    """Fused layer normalisation over the last axis — one node, not eight.

    The unfused expression (``mean → sub → square → mean → add-eps → sqrt →
    div → scale → shift``) builds eight tape nodes per call and dominates GN
    block cost.  This backward composes exactly the same per-op gradient
    rules in exactly the reverse-topological accumulation order of the
    unfused chain (Div before Mul on the centred input, Sub before the mean
    on ``x``), so gradients are bit-identical when the normalised input has
    no other consumer — which is how every model in the repo uses it.
    """

    __slots__ = ("centred", "std", "normed")

    def __init__(self, parents, centred, std, normed):
        self.parents = parents
        self.centred = centred
        self.std = std
        self.normed = normed

    def backward(self, grad):
        x, scale, shift = self.parents
        c, s, normed = self.centred, self.std, self.normed
        count = float(x.data.shape[-1])
        dshift, dscale = grad, grad * normed
        if grad.ndim > 1:
            # ``scale``/``shift`` are ``(width,)``: the batch axes sum out
            # (a 1-D ``grad`` is returned as is: a sum would turn -0.0 to 0.0).
            batch_axes = tuple(range(grad.ndim - 1))
            dshift, dscale = dshift.sum(axis=batch_axes), dscale.sum(axis=batch_axes)
        dnormed = grad * scale.data
        # Div: both branches of ``c / s``.
        dc = dnormed / s
        ds = unbroadcast(-dnormed * c / (s**2), s.shape)
        # Sqrt then the variance mean (the eps add passes grad through).
        dv = ds * 0.5 / s
        dsq = np.broadcast_to(dv / count, c.shape)
        # Mul(c, c): the same parent twice, accumulated left to right.
        dc = (dc + dsq * c) + dsq * c
        # Sub(x, m) then the mean of x.
        dm = unbroadcast(-dc, s.shape)
        dx = dc + np.broadcast_to(dm / count, x.data.shape)
        return ((x, dx), (scale, dscale), (shift, dshift))


class Reshape(Operation):
    __slots__ = ()

    def backward(self, grad):
        (a,) = self.parents
        return ((a, grad.reshape(a.data.shape)),)


class Transpose(Operation):
    __slots__ = ("inverse",)

    def __init__(self, parents, inverse):
        self.parents = parents
        self.inverse = inverse

    def backward(self, grad):
        return ((self.parents[0], np.transpose(grad, self.inverse)),)


class GetItem(Operation):
    __slots__ = ("index",)

    def __init__(self, parents, index):
        self.parents = parents
        self.index = index

    def backward(self, grad):
        (a,) = self.parents
        full = np.zeros_like(a.data)
        np.add.at(full, self.index, grad)
        return ((a, full),)


class Concatenate(Operation):
    __slots__ = ("axis", "offsets")

    def __init__(self, parents, axis, offsets):
        self.parents = parents
        self.axis = axis
        self.offsets = offsets

    def backward(self, grad):
        axis = self.axis
        offsets = self.offsets
        pairs = []
        for tensor, start, stop in zip(self.parents, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            pairs.append((tensor, grad[tuple(slicer)]))
        return pairs


class Stack(Operation):
    __slots__ = ("axis",)

    def __init__(self, parents, axis):
        self.parents = parents
        self.axis = axis

    def backward(self, grad):
        slices = np.moveaxis(grad, self.axis, 0)
        return list(zip(self.parents, slices))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


class ReduceSum(Operation):
    __slots__ = ("axis", "keepdims")

    def __init__(self, parents, axis, keepdims):
        self.parents = parents
        self.axis = axis
        self.keepdims = keepdims

    def backward(self, grad):
        (a,) = self.parents
        g = np.asarray(grad)
        if self.axis is not None and not self.keepdims:
            g = np.expand_dims(g, axis=self.axis)
        return ((a, np.broadcast_to(g, a.data.shape).copy()),)


class ReduceMean(Operation):
    __slots__ = ("axis", "keepdims", "count")

    def __init__(self, parents, axis, keepdims, count):
        self.parents = parents
        self.axis = axis
        self.keepdims = keepdims
        self.count = count

    def backward(self, grad):
        (a,) = self.parents
        g = np.asarray(grad) / float(self.count)
        if self.axis is not None and not self.keepdims:
            g = np.expand_dims(g, axis=self.axis)
        return ((a, np.broadcast_to(g, a.data.shape).copy()),)


class ReduceMax(Operation):
    __slots__ = ("axis", "keepdims", "mask")

    def __init__(self, parents, axis, keepdims, mask):
        self.parents = parents
        self.axis = axis
        self.keepdims = keepdims
        self.mask = mask

    def backward(self, grad):
        (a,) = self.parents
        g = np.asarray(grad)
        if self.axis is not None and not self.keepdims:
            g = np.expand_dims(g, axis=self.axis)
        return ((a, np.broadcast_to(g, a.data.shape) * self.mask),)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


class Softmax(Operation):
    __slots__ = ("axis", "out")

    def __init__(self, parents, axis, out):
        self.parents = parents
        self.axis = axis
        self.out = out

    def backward(self, grad):
        out = self.out
        dot = (grad * out).sum(axis=self.axis, keepdims=True)
        return ((self.parents[0], out * (grad - dot)),)


class LogSoftmax(Operation):
    __slots__ = ("axis", "probs")

    def __init__(self, parents, axis, probs):
        self.parents = parents
        self.axis = axis
        self.probs = probs

    def backward(self, grad):
        g = grad - self.probs * grad.sum(axis=self.axis, keepdims=True)
        return ((self.parents[0], g),)


# ---------------------------------------------------------------------------
# Gather / scatter / segment ops (the GNN workhorses)
# ---------------------------------------------------------------------------


class ScatterCache(KeyedLRU):
    """CSR row-scatter patterns keyed on ``(num_segments, ids.tobytes())``.

    ``(indptr, indices, data)`` of the ``(num_segments, len(ids))`` matrix
    that is 1 where ``ids[k] == s``: times ``x`` it sums the rows of ``x``
    per segment, the forward of :func:`~repro.tensor.ops.segment_sum` and
    the backward of a row gather.  A batch's id arrays repeat on every
    forward and backward, so each pattern is built once and shared.
    """

    def pattern(self, ids: np.ndarray, num_segments: int) -> tuple[np.ndarray, ...]:
        return self.lookup(
            (num_segments, ids.tobytes()), lambda: _scatter_pattern(ids, num_segments)
        )


def _scatter_pattern(ids: np.ndarray, num_segments: int) -> tuple[np.ndarray, ...]:
    """The pattern of :class:`ScatterCache`; a row's columns are in ``ids`` order."""
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError(f"segment ids must lie in [0, {num_segments})")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=num_segments))))
    indices = np.argsort(ids, kind="stable")
    return indptr.astype(np.int32), indices.astype(np.int32), np.ones(len(ids))


#: One 896-edge pattern is ~15 KB, so a full cache stays a few MB.
_SCATTER_CACHE = ScatterCache(max_entries=256)


def scatter_rows(x: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``out[s] = sum of x[k] over ids[k] == s``: the CSR product ``scatter @ x``.

    It calls scipy's CSR kernels as ``@`` does, without the operator's
    dispatch, which at a single graph's sizes costs more than ``np.add.at``.
    """
    pattern = _SCATTER_CACHE.pattern(ids, num_segments)
    out = np.zeros((num_segments,) + x.shape[1:])
    if x.ndim == 1:
        # The vector kernel, as ``@`` picks: where two NaNs meet, it keeps
        # the one ``np.add.at`` keeps on 1-D input; the matrix kernel keeps
        # the one it keeps on 2-D input.
        csr_matvec(num_segments, len(ids), *pattern, x.ravel(), out)
    else:
        width = math.prod(x.shape[1:])
        csr_matvecs(num_segments, len(ids), width, *pattern, x.ravel(), out.ravel())
    return out


class GatherRows(Operation):
    __slots__ = ("indices",)

    def __init__(self, parents, indices):
        self.parents = parents
        self.indices = indices

    def backward(self, grad):
        (a,) = self.parents
        return ((a, scatter_rows(grad, self.indices, len(a.data))),)


class SegmentSum(Operation):
    __slots__ = ("segment_ids",)

    def __init__(self, parents, segment_ids):
        self.parents = parents
        self.segment_ids = segment_ids

    def backward(self, grad):
        return ((self.parents[0], grad[self.segment_ids]),)
