"""Reward computation and action-to-routing mapping.

The reward (paper Equation 2) is ``-U_agent / U_optimal``: the achieved
maximum link utilisation of the agent's routing on the new demand matrix,
normalised by the LP optimum for that matrix.  The optimum depends only on
(network, DM), so it is memoised — cyclical training sequences revisit the
same matrices thousands of times.  The numerator side (softmin translation
and flow simulation) runs in :meth:`RewardComputer.block_ratios` on the
vectorized batch engine (:mod:`repro.engine`), which processes all
destinations of all steps of a planned block at once.

Dynamic scenarios pass a *different* network per step (the one a
:class:`~repro.graphs.dynamics.NetworkTimeline` puts in force): both the
achieved utilisation and the LP-optimum denominator are then measured on
that step's perturbed variant.  Cache keying stays correct for free —
variants carry a delta fingerprint (``sha256(base || delta)``) in the
``_lp_fingerprint`` slot every keyed cache reads, so a five-step outage
hits the same cached optimum five times and never collides with the base
graph's entries.

Action mappings
---------------
Policies emit raw real values; softmin routing needs strictly positive
weights and a positive γ:

* :func:`weights_from_action` — ``w = exp(scale * clip(a, -1, 1))``, giving
  a symmetric multiplicative range around 1;
* :func:`gamma_from_action` — an affine-sigmoid squash into
  ``[gamma_min, gamma_max]`` (used by the iterative environment, where the
  agent chooses γ; the one-shot environments fix γ as a hyperparameter).

Both raise :class:`NonFiniteActionError` on NaN or infinite outputs — the
signature of a diverged policy — instead of letting them reach softmin.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.simulator_batch import stacked_destination_link_loads
from repro.engine.softmin_batch import stacked_softmin_ratios
from repro.flows.lp import OptimalUtilisationCache
from repro.flows.simulator import (
    checked_ratio_to_optimum,
    max_link_utilisation,
    ratio_to_optimum,
)
from repro.graphs.network import Network
from repro.routing.softmin import _validate_weights
from repro.routing.strategy import RoutingStrategy
from repro.utils.validation import check_demand_matrix, check_gamma

DEFAULT_WEIGHT_SCALE = 3.0
DEFAULT_GAMMA_RANGE = (0.5, 10.0)

#: Floats per stacked call of :meth:`RewardComputer.block_ratios`, counted
#: as ``n³ + n·e`` per step (the dense balance systems plus the routing
#: table).  It bounds the stacked arrays on large topologies; a block of
#: 256 steps on Abilene or NSFNet fits in one call.
BLOCK_FLOATS = 1 << 21


class NonFiniteActionError(ValueError):
    """A policy emitted NaN or infinite action entries."""


def _check_finite(action: np.ndarray) -> np.ndarray:
    bad = int(np.count_nonzero(~np.isfinite(action)))
    if bad:
        raise NonFiniteActionError(
            f"action has {bad} non-finite of {action.size} entries; the policy "
            "has diverged"
        )
    return action


def weights_from_action(action: np.ndarray, scale: float = DEFAULT_WEIGHT_SCALE) -> np.ndarray:
    """Map raw agent outputs to positive softmin edge weights."""
    action = _check_finite(np.asarray(action, dtype=np.float64))
    return np.exp(scale * np.clip(action, -1.0, 1.0))


def gamma_from_action(
    value: float, gamma_range: tuple[float, float] = DEFAULT_GAMMA_RANGE
) -> float:
    """Squash one raw output into the softmin spread range."""
    low, high = gamma_range
    if not 0.0 < low < high:
        raise ValueError(f"need 0 < low < high, got {gamma_range}")
    value = float(_check_finite(np.asarray(value, dtype=np.float64)))
    return low + (high - low) / (1.0 + float(np.exp(-value)))


class RewardComputer:
    """Computes Equation 2 rewards, memoising LP optima per demand matrix.

    The optimum cache's constraint structures come from the ambient
    :func:`~repro.flows.lp.use_lp_cache` binding.
    """

    def __init__(self):
        self.cache = OptimalUtilisationCache()

    def utilisation_ratio(
        self, network: Network, routing: RoutingStrategy, demand_matrix: np.ndarray
    ) -> float:
        """``U_agent / U_optimal`` for one DM (≥ 1 up to LP tolerance)."""
        # max_link_utilisation has validated the DM, so the rule reads it as is.
        achieved = max_link_utilisation(network, routing, demand_matrix)
        return checked_ratio_to_optimum(
            achieved,
            np.asarray(demand_matrix, dtype=np.float64),
            lambda: self.cache.optimal_max_utilisation(network, demand_matrix),
        )[0]

    def ratio_from_achieved(
        self, network: Network, achieved: float, demand_matrix: np.ndarray
    ) -> tuple[float, float]:
        """``(U_agent / U_optimal, U_optimal)`` for an already-measured ``U_max``.

        :func:`~repro.flows.simulator.ratio_to_optimum` with the optimum
        read from this computer's cache: a wrong-shape demand matrix
        raises, an all-zero one gives ``(1.0, 0.0)`` and a zero optimum
        under positive demand raises ``ValueError``.
        """
        return ratio_to_optimum(
            network,
            achieved,
            demand_matrix,
            lambda: self.cache.optimal_max_utilisation(network, demand_matrix),
        )

    def block_ratios(
        self, routings: Sequence[tuple[Network, np.ndarray, float, np.ndarray]]
    ) -> np.ndarray:
        """``U_agent / U_optimal`` of many ``(network, weights, gamma, demand)``.

        The ratios :meth:`utilisation_ratio` gives each entry's
        :func:`~repro.routing.softmin.softmin_routing`, bit for bit, from
        one stacked softmin and one stacked balance solve per topology (per
        :data:`BLOCK_FLOATS` worth of its steps).
        Every entry's weights, γ and demand matrix are validated, in entry
        order, before anything is built; the optimum lookups then run in
        entry order too, so the LP cache sees the same sequence of solves.
        """
        checked = [
            (
                network,
                _validate_weights(network, weights),
                check_gamma(gamma),
                check_demand_matrix(demand, network.num_nodes),
            )
            for network, weights, gamma, demand in routings
        ]
        groups: dict[int, list[int]] = {}
        for index, (network, _, _, _) in enumerate(checked):
            groups.setdefault(id(network), []).append(index)
        achieved = np.empty(len(checked))
        for members in groups.values():
            network = checked[members[0]][0]
            n = network.num_nodes
            per_call = max(1, BLOCK_FLOATS // (n**3 + n * network.num_edges))
            for start in range(0, len(members), per_call):
                indices = members[start : start + per_call]
                weights, gammas, demands = (
                    np.stack([checked[i][part] for i in indices]) for part in (1, 2, 3)
                )
                tables = stacked_softmin_ratios(network, weights, gammas)
                loads = stacked_destination_link_loads(network, tables, demands)
                achieved[indices] = (loads / network.capacities).max(axis=1)
        return np.array(
            [
                self._optimum_ratio(network, u, demand)
                for u, (network, _, _, demand) in zip(achieved, checked)
            ]
        )

    def _optimum_ratio(self, network: Network, achieved: float, demand: np.ndarray) -> float:
        return checked_ratio_to_optimum(
            achieved, demand, lambda: self.cache.optimal_max_utilisation(network, demand)
        )[0]
