"""Demand sequences: the temporal dimension of the workload.

The paper trains on *cyclical sequences* ``x = {D_{i mod q}}`` — a base block
of ``q`` distinct DMs repeated until the sequence reaches the desired length
(60 DMs with cycle length 10 in the main experiment).  The RL observation at
step ``i`` is the ``memory_length`` most recent DMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic import matrices
from repro.utils.seeding import SeedLike, rng_from_seed, spawn_rngs


@dataclass(frozen=True)
class DemandSequence:
    """An immutable sequence of demand matrices plus history access.

    Attributes
    ----------
    demands:
        Array of shape ``(length, n, n)``.
    cycle_length:
        The period ``q`` of the underlying cyclical block (0 if acyclic).
    """

    demands: np.ndarray
    cycle_length: int = 0

    def __post_init__(self):
        demands = np.asarray(self.demands, dtype=np.float64)
        if demands.ndim != 3 or demands.shape[1] != demands.shape[2]:
            raise ValueError(f"demands must be (T, n, n), got {demands.shape}")
        if not np.isfinite(demands).all():
            raise ValueError("demands must be finite")
        if np.any(demands < 0.0):
            raise ValueError("demands must be non-negative")
        object.__setattr__(self, "demands", demands)

    def __len__(self) -> int:
        return self.demands.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.demands.shape[1]

    def matrix(self, step: int) -> np.ndarray:
        """The DM at ``step`` (supports negative indexing)."""
        return self.demands[step]

    def history(self, step: int, memory_length: int) -> np.ndarray:
        """The ``memory_length`` DMs ending at ``step`` inclusive.

        Steps before the start of the sequence are zero matrices, so the
        result always has shape ``(memory_length, n, n)``.
        """
        if memory_length < 1:
            raise ValueError("memory_length must be >= 1")
        n = self.num_nodes
        out = np.zeros((memory_length, n, n))
        for k in range(memory_length):
            src = step - (memory_length - 1 - k)
            if 0 <= src < len(self):
                out[k] = self.demands[src]
        return out

    def total_demand(self) -> float:
        return float(self.demands.sum())


def cyclical_sequence(
    num_nodes: int,
    length: int,
    cycle_length: int,
    seed: SeedLike = None,
    model: str = "bimodal",
    **model_kwargs,
) -> DemandSequence:
    """Build the paper's cyclical sequence ``x = {D_{i mod q}}``.

    Parameters
    ----------
    num_nodes:
        Matrix dimension.
    length:
        Total sequence length (60 in the paper's main experiment).
    cycle_length:
        Period ``q`` (10 in the paper); each of the ``q`` block DMs is drawn
        independently from ``model``.
    model / model_kwargs:
        Demand model name passed to :func:`repro.traffic.matrices.generate`,
        or any callable with the generator protocol
        ``(num_nodes, seed=..., **kwargs) -> ndarray`` (e.g. a model
        registered with :func:`repro.api.register_traffic`).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if cycle_length < 1:
        raise ValueError("cycle_length must be >= 1")
    rng = rng_from_seed(seed)
    generator = model if callable(model) else None
    block = np.stack(
        [
            generator(num_nodes, seed=rng, **model_kwargs)
            if generator is not None
            else matrices.generate(model, num_nodes, seed=rng, **model_kwargs)
            for _ in range(cycle_length)
        ]
    )
    demands = np.stack([block[i % cycle_length] for i in range(length)])
    return DemandSequence(demands, cycle_length=cycle_length)


def train_test_sequences(
    num_nodes: int,
    num_train: int = 7,
    num_test: int = 3,
    length: int = 60,
    cycle_length: int = 10,
    seed: SeedLike = None,
    model: str = "bimodal",
    **model_kwargs,
) -> tuple[list[DemandSequence], list[DemandSequence]]:
    """The paper's split: 7 training and 3 test sequences of 60 DMs.

    Each sequence gets an independent RNG stream derived from ``seed``, so
    train and test sets never share demand blocks.  ``seed`` must be an
    integer (any integral type — numpy scalars from sweep arithmetic are
    coerced losslessly) or ``None`` for OS entropy; anything else raises
    instead of silently producing an irreproducible split.
    """
    if num_train < 1 or num_test < 0:
        raise ValueError("need num_train >= 1 and num_test >= 0")
    streams = spawn_rngs(seed, num_train + num_test)
    sequences = [
        cyclical_sequence(
            num_nodes, length, cycle_length, seed=stream, model=model, **model_kwargs
        )
        for stream in streams
    ]
    return sequences[:num_train], sequences[num_train:]
