"""A small reverse-mode automatic-differentiation engine on top of numpy.

This package is the repository's substitute for TensorFlow: it provides a
:class:`Tensor` type that records the operations applied to it and can
back-propagate gradients through them, a neural-network layer library
(:mod:`repro.tensor.nn`), weight initialisers (:mod:`repro.tensor.init`) and
first-order optimisers (:mod:`repro.tensor.optim`).

The op coverage is exactly what the GDDR reproduction needs: broadcast-aware
arithmetic, matrix multiplication, reductions, pointwise nonlinearities,
(log-)softmax, concatenation/stacking, row gather/scatter and segment sums
(the ``tf.unsorted_segment_sum`` used by the paper's GN blocks).

Example
-------
>>> from repro.tensor import Tensor
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad.tolist()
[[2.0, 4.0]]
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.ops import (
    concatenate,
    gather_rows,
    log_softmax,
    maximum,
    minimum,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    softmax,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
]
