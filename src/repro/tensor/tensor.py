"""The core :class:`Tensor` type and the reverse-mode autodiff tape.

Design
------
Every differentiable operation attaches an :class:`~repro.tensor.operation.
Operation` instance to its output tensor (the ``_op`` slot).  The instance
references the input tensors and caches whatever forward state the gradient
needs.  Calling :meth:`Tensor.backward` topologically sorts the implicit
graph iteratively and runs each operation's ``backward`` in reverse order,
accumulating gradients **in place**: the first contribution to a node is
borrowed (the upstream array, possibly a view), the second allocates a fresh
owned array, and later contributions use ``+=`` on that owned buffer — same
IEEE arithmetic order as repeated out-of-place adds, so results are
bit-identical to the earlier closure-per-op tape while avoiding one
allocation per extra fan-out edge.

Broadcasting follows numpy semantics; :func:`unbroadcast` reduces an upstream
gradient back to the shape of the operand that was broadcast.

A per-thread switch (:func:`no_grad`) disables graph construction for
rollout/inference code paths, mirroring ``torch.no_grad`` /
``tf.stop_gradient`` usage in RL libraries.  Under ``no_grad`` the operation
objects (and their cached masks) are never built at all.  The switch is an
:class:`~repro.utils.ambient.Ambient`, so a thread serving inference under
``no_grad`` never turns recording off for a thread that is training.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.ambient import Ambient

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Whether new operations are recorded on the tape, per thread.
_GRAD = Ambient(True)

# Bound to the repro.tensor.ops module when it is imported (always, via the
# package __init__); breaks the Tensor <-> ops import cycle without paying a
# per-call import lookup in every arithmetic dunder.
_ops = None


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded on the tape."""
    return _GRAD.value


def no_grad():
    """Context manager that disables gradient recording on this thread.

    Inside the block every operation produces constant tensors, which keeps
    inference (e.g. PPO rollouts) cheap and prevents the tape from growing.
    """
    return _GRAD.bind(False)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting.

    Axes that were added by broadcasting are summed out, and axes of size one
    that were stretched are summed back with ``keepdims``.
    """
    if grad.shape == shape:
        return grad
    # Sum out leading axes that were prepended by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    return array


class Tensor:
    """A numpy-backed array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``float64`` numpy array.
    requires_grad:
        If ``True`` this tensor is a trainable leaf: gradients accumulate in
        :attr:`grad` when :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_op", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD.value
        self.grad: Optional[np.ndarray] = None
        self._op = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(data: np.ndarray, op) -> "Tensor":
        """Fast path: non-leaf tensor holding an already-float64 array."""
        if not isinstance(data, np.ndarray):
            # numpy reductions on 0-d inputs return numpy scalars.
            data = np.asarray(data, dtype=np.float64)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = True
        out.grad = None
        out._op = op
        out.name = ""
        return out

    @staticmethod
    def _constant(data: np.ndarray) -> "Tensor":
        """Fast path: constant tensor holding an already-float64 array."""
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float64)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._op = None
        out.name = ""
        return out

    @staticmethod
    def ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (constants stay constant)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data."""
        return Tensor(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_note})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor to every reachable leaf.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1.0, which requires this tensor to be scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        # ids whose buffer in ``grads`` we allocated (safe to mutate / hand
        # to a leaf); everything else is borrowed from an op's backward and
        # may alias an upstream gradient or a view of one.
        owned: set[int] = set()
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            op = node._op
            if op is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    if id(node) in owned:
                        node.grad = node_grad
                    else:
                        node.grad = node_grad.copy()
                else:
                    node.grad += node_grad
                continue
            for parent, g in op.backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key not in grads:
                    grads[key] = g
                elif key in owned:
                    grads[key] += g
                else:
                    grads[key] = grads[key] + g
                    owned.add(key)

    def _topological_order(self) -> list["Tensor"]:
        """Return nodes reachable from ``self`` in reverse topological order."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            op = node._op
            if op is not None:
                for parent in op.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic (implemented in ops.py; ``_ops`` is bound at import time)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return _ops.add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __radd__(self, other):
        return _ops.add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __sub__(self, other):
        return _ops.sub(self, other if isinstance(other, Tensor) else Tensor(other))

    def __rsub__(self, other):
        return _ops.sub(Tensor.ensure(other), self)

    def __mul__(self, other):
        return _ops.mul(self, other if isinstance(other, Tensor) else Tensor(other))

    def __rmul__(self, other):
        return _ops.mul(self, other if isinstance(other, Tensor) else Tensor(other))

    def __truediv__(self, other):
        return _ops.div(self, other if isinstance(other, Tensor) else Tensor(other))

    def __rtruediv__(self, other):
        return _ops.div(Tensor.ensure(other), self)

    def __neg__(self):
        return _ops.mul(self, Tensor(-1.0))

    def __pow__(self, exponent: float):
        return _ops.power(self, float(exponent))

    def __matmul__(self, other):
        return _ops.matmul(self, other if isinstance(other, Tensor) else Tensor(other))

    def __getitem__(self, index):
        return _ops.getitem(self, index)

    # Reductions / shape ops -------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return _ops.reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return _ops.reduce_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        return _ops.reduce_max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False):
        return _ops.reduce_max(-self, axis=axis, keepdims=keepdims) * -1.0

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _ops.reshape(self, shape)

    def flatten(self):
        return self.reshape((-1,))

    def transpose(self, axes=None):
        return _ops.transpose(self, axes)

    @property
    def T(self):
        return self.transpose()

    # Pointwise nonlinearities -----------------------------------------------
    def exp(self):
        return _ops.exp(self)

    def log(self):
        return _ops.log(self)

    def sqrt(self):
        return _ops.sqrt(self)

    def tanh(self):
        return _ops.tanh(self)

    def relu(self):
        return _ops.relu(self)

    def sigmoid(self):
        return _ops.sigmoid(self)

    def clip(self, low: float, high: float):
        return _ops.clip(self, low, high)

    def abs(self):
        return _ops.absolute(self)
