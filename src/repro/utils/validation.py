"""Small argument-validation helpers shared across the library.

These raise early with readable messages instead of letting numpy broadcast
errors surface deep inside the flow solver or the autodiff tape.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it as float."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_node(name: str, value: int, num_nodes: int) -> int:
    """Require a vertex id in ``0..num_nodes-1`` (no negative wrap); return it."""
    value = int(value)
    if not 0 <= value < num_nodes:
        raise ValueError(f"{name} must be in 0..{num_nodes - 1}, got {value}")
    return value


def check_square_matrix(name: str, matrix: np.ndarray) -> np.ndarray:
    """Require a square 2-D array; return it as float64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {matrix.shape}")
    return matrix
