"""Observation record shared by all GDDR environments.

The environments emit :class:`GraphObservation` objects rather than flat
arrays so that multi-topology training fits the same interface.  The record
carries everything a policy might featurize:

* the topology itself (graph structure for GNN policies);
* the normalised demand history (paper §V-B);
* for the iterative environment, the per-edge ``(weight, set, target)``
  marker state (paper Equation 6).

Convenience featurizer views live here too: :meth:`GraphObservation.flat`
is the MLP view (flattened history), and
:meth:`GraphObservation.node_demand_features` is the GNN view — per-vertex
total outgoing and incoming demand (paper Equation 4), per history step,
which keeps the per-node feature width constant as graphs grow (the O(|V|)
observation the paper's §V-B derives).

The environments, the evaluator and PPO's planned rollouts all build
observations with the same pure functions, :func:`demand_history` and
:func:`edge_markers`, so no consumer re-derives what an environment would
have shown the agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graphs.network import Network
from repro.traffic.sequences import DemandSequence


def demand_history(
    sequence: DemandSequence, step: int, memory_length: int, demand_scale: float
) -> np.ndarray:
    """What the agent sees before acting on ``step`` (paper §V-B).

    The ``memory_length`` demand matrices preceding ``step``, divided by
    the normaliser (zero matrices before the sequence starts).
    """
    return sequence.history(step - 1, memory_length) / demand_scale


def edge_markers(
    raw_weights: np.ndarray, set_flags: np.ndarray, target_edge: Optional[int]
) -> np.ndarray:
    """The iterative marker state (paper Eq. 6), shape ``(num_edges, 3)``.

    Columns ``(current_weight, already_set, is_target)``; a ``target_edge``
    of ``None`` or past the last edge flags no target.
    """
    state = np.zeros((len(raw_weights), 3))
    state[:, 0] = raw_weights
    state[:, 1] = set_flags
    if target_edge is not None and target_edge < len(raw_weights):
        state[target_edge, 2] = 1.0
    return state


@dataclass(frozen=True)
class GraphObservation:
    """One environment observation (see module docstring).

    Attributes
    ----------
    network:
        The topology currently being routed over.
    history:
        Normalised demand history, shape ``(memory_length, n, n)``.
    edge_state:
        Iterative-policy marker array of shape ``(num_edges, 3)`` —
        columns ``(current_weight, already_set, is_target)`` — or ``None``
        for the one-shot environments.
    """

    network: Network
    history: np.ndarray
    edge_state: Optional[np.ndarray] = None

    def __post_init__(self):
        history = np.asarray(self.history, dtype=np.float64)
        if history.ndim != 3 or history.shape[1] != history.shape[2]:
            raise ValueError(f"history must be (memory, n, n), got {history.shape}")
        if history.shape[1] != self.network.num_nodes:
            raise ValueError(
                f"history is over {history.shape[1]} nodes but network has "
                f"{self.network.num_nodes}"
            )
        object.__setattr__(self, "history", history)
        if self.edge_state is not None:
            edge_state = np.asarray(self.edge_state, dtype=np.float64)
            if edge_state.shape != (self.network.num_edges, 3):
                raise ValueError(
                    f"edge_state must be ({self.network.num_edges}, 3), got {edge_state.shape}"
                )
            object.__setattr__(self, "edge_state", edge_state)

    @property
    def memory_length(self) -> int:
        return self.history.shape[0]

    def flat(self) -> np.ndarray:
        """MLP view: flattened history (plus edge state when present)."""
        parts = [self.history.ravel()]
        if self.edge_state is not None:
            parts.append(self.edge_state.ravel())
        return np.concatenate(parts)

    def node_demand_features(self) -> np.ndarray:
        """GNN view (paper Eq. 4): per-vertex in/out demand sums.

        Shape ``(n, 2 * memory_length)``: for each history step the total
        demand originating at the vertex and the total destined to it.
        """
        out_sums = self.history.sum(axis=2)  # (memory, n)
        in_sums = self.history.sum(axis=1)  # (memory, n)
        return np.concatenate([out_sums.T, in_sums.T], axis=1)

    def edge_features(self) -> np.ndarray:
        """GNN edge inputs: the marker state, or zeros for one-shot envs."""
        if self.edge_state is not None:
            return self.edge_state
        return np.zeros((self.network.num_edges, 1))
