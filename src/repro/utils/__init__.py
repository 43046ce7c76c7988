"""Shared utilities: seeding, validation, caching primitives, per-thread
scoped settings, logging."""

from repro.utils.ambient import Ambient
from repro.utils.caching import (
    KeyedLRU,
    atomic_write_text,
    sharded_digests,
    sharded_entry_path,
)
from repro.utils.seeding import rng_from_seed, spawn_rngs
from repro.utils.validation import check_positive, check_probability, check_square_matrix

__all__ = [
    "Ambient",
    "KeyedLRU",
    "atomic_write_text",
    "sharded_digests",
    "sharded_entry_path",
    "rng_from_seed",
    "spawn_rngs",
    "check_positive",
    "check_probability",
    "check_square_matrix",
]
