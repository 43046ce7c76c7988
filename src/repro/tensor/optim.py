"""First-order optimisers operating on lists of parameter tensors.

One optimiser, :class:`Adam`, the stable-baselines PPO2 default, stepped
over flat moment buffers.  Global-norm gradient clipping
(:func:`clip_grad_norm`) matches ``max_grad_norm`` in PPO implementations.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tensor.tensor import Tensor


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping (useful for logging).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Adam:
    """Adam with bias correction (Kingma & Ba 2015).

    Defaults follow the stable-baselines PPO2 configuration the paper trained
    with (``lr=2.5e-4`` there; we default to ``3e-4`` and let experiment
    configs override).

    The first and second moments of every parameter live in one flat ``m``
    and one flat ``v``, so a step is one set of vector operations over all
    parameters rather than a handful of numpy calls per parameter.  Every
    operation is elementwise, so each element sees the same IEEE arithmetic
    as a per-parameter loop and the result is bit-identical to it.  A
    parameter whose ``grad`` is ``None`` keeps its moments and its data.
    Parameters are updated in place, so their ``data`` arrays keep their
    identity across steps.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._step_count = 0
        sizes = [p.data.size for p in self.parameters]
        self._bounds = np.cumsum([0] + sizes)
        self._m = np.zeros(self._bounds[-1])
        self._v = np.zeros(self._bounds[-1])

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        live = [i for i, p in enumerate(self.parameters) if p.grad is not None]
        if not live:
            return
        grad = np.concatenate([self.parameters[i].grad.ravel() for i in live])
        # A slice views the moment buffers; an index array copies them, so
        # they are written back after the update.
        if len(live) == len(self.parameters):
            slots = slice(None)
        else:
            slots = np.concatenate(
                [np.arange(self._bounds[i], self._bounds[i + 1]) for i in live]
            )
        m, v = self._m[slots], self._v[slots]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        self._m[slots], self._v[slots] = m, v
        m_hat = m / bias1
        v_hat = v / bias2
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
        start = 0
        for i in live:
            p = self.parameters[i]
            stop = start + p.data.size
            # In place, so the parameter buffer's identity is stable.
            p.data -= update[start:stop].reshape(p.data.shape)
            start = stop

    def set_lr(self, lr: float) -> None:
        """Update the learning rate (used by linear-decay schedules)."""
        self.lr = float(lr)
