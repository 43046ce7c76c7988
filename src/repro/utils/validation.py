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


def check_gamma(gamma: float) -> float:
    """Require a finite softmin spread ``gamma >= 0``; return it as float.

    NaN and infinity are rejected: either turns every softmin score into
    NaN, leaving an all-zero splitting table that carries no traffic.
    """
    gamma = float(gamma)
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    return gamma


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


def check_demand_matrix(matrix: np.ndarray, num_nodes: int) -> np.ndarray:
    """Require a finite ``(num_nodes, num_nodes)`` demand matrix; return it as float64.

    NaN and infinity are rejected: NaN fails every ``> 0`` demand filter
    and would be scored as zero demand, and infinity has no finite optimum.
    """
    demand = check_square_matrix("demand_matrix", matrix)
    if demand.shape[0] != num_nodes:
        raise ValueError(
            f"demand matrix size {demand.shape[0]} does not match network "
            f"({num_nodes} nodes)"
        )
    if not np.isfinite(demand).all():
        raise ValueError("demand matrix entries must be finite")
    return demand
