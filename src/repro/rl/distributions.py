"""Action distributions for continuous-control PPO.

GDDR's actions are real vectors (edge weights, or ``(weight, γ)`` pairs in
the iterative policy), so the policy head is a diagonal Gaussian.  The
log-standard-deviation is a single *shared scalar* parameter rather than a
per-dimension vector: this makes the distribution shape-agnostic, which is
what lets one trained GNN policy emit actions of different lengths on
different topologies.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor

LOG_2PI = float(np.log(2.0 * np.pi))


class DiagonalGaussian:
    """Diagonal Gaussian with shared scalar log-std.

    Parameters
    ----------
    initial_log_std:
        Starting value of the log standard deviation (0.0 → std 1.0; the
        stable-baselines default).
    min_log_std / max_log_std:
        Clamp range applied when reading the parameter, preventing the
        collapse/explosion instabilities PPO is prone to.
    """

    def __init__(
        self,
        initial_log_std: float = 0.0,
        min_log_std: float = -5.0,
        max_log_std: float = 2.0,
    ):
        if min_log_std >= max_log_std:
            raise ValueError("need min_log_std < max_log_std")
        self.log_std = Tensor(np.array(initial_log_std), requires_grad=True)
        self.min_log_std = float(min_log_std)
        self.max_log_std = float(max_log_std)

    # ------------------------------------------------------------------
    # Numpy-side (rollouts)
    # ------------------------------------------------------------------
    def std_value(self) -> float:
        """Current standard deviation as a plain float."""
        # minimum/maximum select exactly what clip would, at a fraction of
        # clip's per-call cost on a 0-d array (this runs twice per action).
        clamped = np.minimum(np.maximum(self.log_std.data, self.min_log_std), self.max_log_std)
        return float(np.exp(clamped))

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw an action given the policy mean (no gradient)."""
        return self.shift(mean, rng.standard_normal(mean.shape))

    def shift(self, mean: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The action :meth:`sample` gives when ``rng`` draws ``noise``."""
        if noise.shape != mean.shape:
            raise ValueError(
                f"noise has shape {noise.shape}, expected the action's {mean.shape}"
            )
        return mean + self.std_value() * noise

    def log_prob_values(
        self, means: list[np.ndarray], actions: list[np.ndarray]
    ) -> np.ndarray:
        """Log densities for a batch of actions (no gradient).

        The canonical numpy log-prob implementation: one entry per
        ``(mean, action)`` pair, each summed over its own dimensions (action
        lengths may differ across the batch).  The squared z-scores of each
        sample are reduced with numpy's pairwise ``sum`` — the same
        reduction order for a batch of one as for a member of a larger
        batch, which keeps single-env rollouts bit-identical to batched
        ones.
        """
        std = self.std_value()
        log_norm = np.log(std) + 0.5 * LOG_2PI
        sums = np.empty(len(means))
        dims = np.empty(len(means))
        for i, (mean, action) in enumerate(zip(means, actions)):
            z = (np.asarray(action) - np.asarray(mean)) / std
            sums[i] = float((z**2).sum())
            dims[i] = np.asarray(mean).size
        return -0.5 * sums - dims * log_norm

    # ------------------------------------------------------------------
    # Tensor-side (training: differentiable, batched)
    # ------------------------------------------------------------------
    def clamped_log_std(self) -> Tensor:
        return self.log_std.clip(self.min_log_std, self.max_log_std)

    def log_prob_flat_batch(
        self,
        means_flat: Tensor,
        actions_flat: np.ndarray,
        sample_ids: np.ndarray,
        num_samples: int,
    ) -> Tensor:
        """Log densities for a batch whose action dims may differ.

        ``means_flat``/``actions_flat`` are the concatenation of every
        sample's action vector; ``sample_ids`` says which sample each entry
        belongs to.  Returns a ``(num_samples,)`` tensor.  This segment-sum
        form is the only tensor-side log density: every policy's
        ``evaluate`` scores its minibatch through it.
        """
        from repro.tensor import segment_sum

        actions_t = Tensor(np.asarray(actions_flat, dtype=np.float64).reshape(-1))
        log_std = self.clamped_log_std()
        inv_std = (-log_std).exp()
        z = (actions_t - means_flat) * inv_std
        sq = segment_sum(z * z, sample_ids, num_samples)
        dims = np.bincount(np.asarray(sample_ids, dtype=np.int64), minlength=num_samples)
        return sq * (-0.5) - (log_std + 0.5 * LOG_2PI) * Tensor(dims.astype(np.float64))

    def entropy_batch(self, dims: np.ndarray) -> Tensor:
        """Entropies for samples of (possibly different) action dims."""
        log_std = self.clamped_log_std()
        return (log_std + 0.5 * (LOG_2PI + 1.0)) * Tensor(
            np.asarray(dims, dtype=np.float64)
        )

    def parameters(self):
        yield self.log_std
