"""Differentiable operations for :class:`repro.tensor.Tensor`.

Each function computes the forward result with numpy and — only when
gradients are being recorded and at least one input requires them — attaches
the matching :mod:`repro.tensor.operation` class to the output tensor.
Under ``no_grad`` no operation object (and none of its cached masks) is
built, so rollout-time forwards pay for the numpy math alone.

Broadcasting is undone with :func:`repro.tensor.tensor.unbroadcast` inside
the operation classes so the gradient always matches the parent's shape.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

import numpy as np

from repro.tensor import operation as _op
from repro.tensor import tensor as _core
from repro.tensor.tensor import _GRAD, Tensor

# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Add((a, b)))
    return Tensor._constant(out)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Sub((a, b)))
    return Tensor._constant(out)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Mul((a, b)))
    return Tensor._constant(out)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Div((a, b)))
    return Tensor._constant(out)


def power(a: Tensor, exponent: float) -> Tensor:
    out = a.data**exponent
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Power((a,), exponent))
    return Tensor._constant(out)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; at ties the gradient flows to the first operand."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out = np.maximum(a.data, b.data)
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.MaximumMinimum((a, b), a.data >= b.data))
    return Tensor._constant(out)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; at ties the gradient flows to the first operand."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    out = np.minimum(a.data, b.data)
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.MaximumMinimum((a, b), a.data <= b.data))
    return Tensor._constant(out)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where``; ``condition`` is a constant mask."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    mask = np.asarray(condition, dtype=bool)
    out = np.where(mask, a.data, b.data)
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Where((a, b), mask))
    return Tensor._constant(out)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside the range."""
    out = np.clip(a.data, low, high)
    if _GRAD.value and a.requires_grad:
        inside = (a.data >= low) & (a.data <= high)
        return Tensor._from_op(out, _op.Clip((a,), inside))
    return Tensor._constant(out)


def absolute(a: Tensor) -> Tensor:
    out = np.abs(a.data)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Absolute((a,), np.sign(a.data)))
    return Tensor._constant(out)


# ---------------------------------------------------------------------------
# Pointwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Exp((a,), out))
    return Tensor._constant(out)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Log((a,)))
    return Tensor._constant(out)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Sqrt((a,), out))
    return Tensor._constant(out)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Tanh((a,), out))
    return Tensor._constant(out)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.ReLU((a,), a.data > 0.0))
    return Tensor._constant(out)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Sigmoid((a,), out))
    return Tensor._constant(out)


# ---------------------------------------------------------------------------
# Linear algebra / shape
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product supporting (m,k)@(k,n), (k,)@(k,n) and (m,k)@(k,)."""
    out = a.data @ b.data
    if _GRAD.value and (a.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.MatMul((a, b)))
    return Tensor._constant(out)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` with every row independent of the others in ``x``.

    BLAS chooses its kernel by matrix shape, so one row of a plain product
    rounds differently as the number of rows around it changes: a policy's
    action for an observation would then depend on its batch-mates.  Each
    row is instead its own ``(1, d) @ w`` product (one stacked ``matmul``),
    so a batch of one and a member of any batch get bit-identical results.
    """
    return np.matmul(x[..., None, :], w)[..., 0, :] + b


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused affine map ``x @ w + b`` (see :class:`operation.Linear`)."""
    out = _affine(x.data, w.data, b.data)
    if _GRAD.value and (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.Linear((x, w, b)))
    return Tensor._constant(out)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused ``relu(x @ w + b)`` (see :class:`operation.LinearReLU`)."""
    pre = _affine(x.data, w.data, b.data)
    out = np.maximum(pre, 0.0)
    if _GRAD.value and (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.LinearReLU((x, w, b), pre > 0.0))
    return Tensor._constant(out)


def linear_tanh(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused ``tanh(x @ w + b)`` (see :class:`operation.LinearTanh`)."""
    out = np.tanh(_affine(x.data, w.data, b.data))
    if _GRAD.value and (x.requires_grad or w.requires_grad or b.requires_grad):
        return Tensor._from_op(out, _op.LinearTanh((x, w, b), out))
    return Tensor._constant(out)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, epsilon: float) -> Tensor:
    """Fused last-axis layer normalisation (see :class:`operation.LayerNorm`).

    The forward runs the identical numpy expression sequence as the unfused
    ``(x - mean) / sqrt(var + eps) * scale + shift`` tensor chain, so outputs
    are bit-identical; only the tape shrinks from eight nodes to one.
    """
    x_data = x.data
    # ``sum / n`` is numpy's own ``mean`` (one sum, one true divide by the
    # count), bit for bit, without the wrapper's per-call overhead.
    width = x_data.shape[-1]
    mean = x_data.sum(axis=-1, keepdims=True) / width
    centred = x_data - mean
    variance = (centred * centred).sum(axis=-1, keepdims=True) / width
    std = np.sqrt(variance + epsilon)
    normed = centred / std
    out = normed * scale.data + shift.data
    if _GRAD.value and (
        x.requires_grad or scale.requires_grad or shift.requires_grad
    ):
        return Tensor._from_op(
            out, _op.LayerNorm((x, scale, shift), centred, std, normed)
        )
    return Tensor._constant(out)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Reshape((a,)))
    return Tensor._constant(out)


def transpose(a: Tensor, axes: Optional[tuple] = None) -> Tensor:
    out = np.transpose(a.data, axes)
    if _GRAD.value and a.requires_grad:
        inverse = None if axes is None else tuple(np.argsort(axes))
        return Tensor._from_op(out, _op.Transpose((a,), inverse))
    return Tensor._constant(out)


def getitem(a: Tensor, index) -> Tensor:
    """Basic and integer-array indexing with scatter-add backward."""
    out = np.array(a.data[index], copy=True)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.GetItem((a,), index))
    return Tensor._constant(out)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    if _GRAD.value and any(t.requires_grad for t in tensors):
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        return Tensor._from_op(out, _op.Concatenate(tuple(tensors), axis, offsets))
    return Tensor._constant(out)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [Tensor.ensure(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    if _GRAD.value and any(t.requires_grad for t in tensors):
        return Tensor._from_op(out, _op.Stack(tuple(tensors), axis))
    return Tensor._constant(out)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.ReduceSum((a,), axis, keepdims))
    return Tensor._constant(out)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if _GRAD.value and a.requires_grad:
        count = (
            a.data.size
            if axis is None
            else np.prod([a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        )
        return Tensor._from_op(out, _op.ReduceMean((a,), axis, keepdims, count))
    return Tensor._constant(out)


def reduce_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; ties split the gradient evenly between maxima."""
    out = a.data.max(axis=axis, keepdims=keepdims)
    if _GRAD.value and a.requires_grad:
        expanded = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == expanded).astype(np.float64)
        mask = mask / mask.sum(axis=axis, keepdims=True)
        return Tensor._from_op(out, _op.ReduceMax((a,), axis, keepdims, mask))
    return Tensor._constant(out)


# ---------------------------------------------------------------------------
# Softmax family
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.Softmax((a,), axis, out))
    return Tensor._constant(out)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.LogSoftmax((a,), axis, np.exp(out)))
    return Tensor._constant(out)


# ---------------------------------------------------------------------------
# Gather / scatter / segment ops (the GNN workhorses)
# ---------------------------------------------------------------------------


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows ``a[indices]`` (indices may repeat)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = a.data[indices]
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.GatherRows((a,), indices))
    return Tensor._constant(out)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` grouped by ``segment_ids``; empty segments give zero.

    The reproduction's stand-in for ``tf.unsorted_segment_sum`` — the pooling
    (ρ) function used by the paper's graph-network blocks.  The sum is one
    cached CSR product (:func:`repro.tensor.operation.scatter_rows`), and
    it is bit-equal to ``np.add.at(zeros, segment_ids, a)``, ``-0.0``,
    ``inf`` and NaN included: ``np.add.at`` adds each row into its segment
    in ``segment_ids`` order, starting from zero, and a CSR product starts
    each output row at zero and adds its entries (``1.0 * a[k]``, which is
    ``a[k]`` exactly) in column order, the stable order of ``segment_ids``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = _op.scatter_rows(a.data, segment_ids, num_segments)
    if _GRAD.value and a.requires_grad:
        return Tensor._from_op(out, _op.SegmentSum((a,), segment_ids))
    return Tensor._constant(out)


# Bind this module into the Tensor class's arithmetic dunders (see the
# ``_ops`` hook in repro.tensor.tensor — avoids a per-call import).
_core._ops = sys.modules[__name__]
