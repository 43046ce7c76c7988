"""The actor-critic policy interface consumed by PPO.

A policy owns its networks and its action distribution and implements one
forward, :meth:`ActorCriticPolicy._forward_batch`, over a batch of
observations.  Two consumers share it:

* :meth:`ActorCriticPolicy.act_batch` — numpy-only inference under
  ``no_grad``: samples (or, deterministically, copies) one action per
  observation.  Rollout collection and evaluation call it once per
  wavefront of a planned block (:func:`repro.rl.env.act_on_chains`: a
  whole one-shot rollout or slice of test steps, or the current sub-step
  of every iterative DM in the block); the service passes one request's
  observation at a time.  The forward is
  batch-invariant (see :func:`repro.tensor.ops._affine`): an
  observation's action, log-prob and value are bit-identical alone or in
  any batch, so served answers equal offline evaluation;
* :meth:`ActorCriticPolicy.evaluate` — differentiable log-probs, values
  and entropies of a minibatch, used inside the PPO update.

Observations are opaque objects; each concrete policy knows how to
featurize the observations its environment emits.  Actions are numpy
arrays whose length may vary across observations (different topologies
have different |E|), so the forward returns the concatenated means with
each entry's sample id and the per-sample quantities are segment sums.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.rl.distributions import DiagonalGaussian
from repro.tensor import Tensor, no_grad
from repro.tensor.nn import Module


class ActorCriticPolicy(Module):
    """Base class for GDDR policies (see module docstring)."""

    distribution: DiagonalGaussian

    def _forward_batch(
        self, observations: Sequence[Any]
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Differentiable forward over a batch of observations.

        Returns ``(means_flat, values, sample_ids)``: every observation's
        action-distribution mean concatenated into one 1-D tensor, the
        ``(B,)`` value estimates, and for each mean entry the index of the
        observation it belongs to (non-decreasing).
        """
        raise NotImplementedError

    def act_batch(
        self,
        observations: Sequence[Any],
        rng: np.random.Generator,
        deterministic: bool = False,
        noise: Optional[Sequence[np.ndarray]] = None,
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Sample actions for a batch of observations (no gradients).

        Returns ``(actions, log_probs, values)`` with one entry per
        observation, actions sampled from the shared ``rng`` in slot order
        (``deterministic`` returns the means).  ``noise`` supplies each
        slot's standard-normal draw instead, shaped like its action: a
        caller that drew a whole rollout's noise up front in timestep order
        can then act on its timesteps in any order.
        """
        with no_grad():
            means_flat, values, sample_ids = self._forward_batch(observations)
        flat = means_flat.numpy()
        ends = list(accumulate(np.bincount(sample_ids, minlength=len(observations)).tolist()))
        means = [flat[start:end] for start, end in zip([0, *ends], ends)]
        if deterministic:
            actions = [mean.copy() for mean in means]
        elif noise is not None:
            actions = [self.distribution.shift(mean, draw) for mean, draw in zip(means, noise)]
        else:
            actions = [self.distribution.sample(mean, rng) for mean in means]
        log_probs = self.distribution.log_prob_values(means, actions)
        return actions, log_probs, values.numpy().copy()

    def evaluate(
        self, observations: Sequence[Any], actions: Sequence[np.ndarray]
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Differentiable evaluation of a minibatch.

        Returns 1-D tensors ``(log_probs, values, entropies)`` of length
        ``len(observations)``.
        """
        means_flat, values, sample_ids = self._forward_batch(observations)
        actions_flat = np.concatenate([np.asarray(a).ravel() for a in actions])
        if actions_flat.size != len(sample_ids):
            raise ValueError(
                f"expected {len(sample_ids)} action entries (edges or action "
                f"dimensions) across the batch, got {actions_flat.size}"
            )
        num_samples = len(observations)
        log_probs = self.distribution.log_prob_flat_batch(
            means_flat, actions_flat, sample_ids, num_samples
        )
        entropies = self.distribution.entropy_batch(
            np.bincount(sample_ids, minlength=num_samples)
        )
        return log_probs, values, entropies

    # ------------------------------------------------------------------
    # Parameter traversal: Module walk plus the distribution parameter.
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        yield from super().parameters()
        dist = getattr(self, "distribution", None)
        if dist is not None:
            yield from dist.parameters()
