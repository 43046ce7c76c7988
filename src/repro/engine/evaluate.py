"""Batch evaluation: many traffic matrices, seeds and topologies per call.

This is the engine's user-facing entry point.  The per-step hot path
(softmin translation + flow simulation) is vectorized by
:mod:`repro.engine.softmin_batch` and :mod:`repro.engine.simulator_batch`;
this module amortises it across whole evaluation workloads:

* :func:`batch_evaluate` — score a policy deterministically on every
  (network, demand-sequence) pair in one call, through PPO's planned
  rollout loop (one forward per block of test steps, one per edge and
  block for the iterative policy, and one stacked scoring call per
  block), LP-prewarming each network's distinct demand matrices first;
* :func:`batch_evaluate_routing` — evaluate a *fixed* routing (shortest
  path, ECMP, oblivious, ...) over entire demand sequences with one
  factorised multi-right-hand-side solve per destination;
* :func:`warm_lp_cache` — deduplicate and presolve the LP optima a
  workload will need (cyclical sequences repeat each block matrix many
  times, so the distinct-matrix count is far below the step count).

All-zero demand matrices are defined to have utilisation ratio 1.0 (zero
load is trivially optimal), so sparse traffic sequences no longer abort a
batch mid-way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.engine.backend import default_backend
from repro.engine.simulator_batch import destination_link_loads_sequence
from repro.envs.factory import make_routing_env
from repro.envs.reward import RewardComputer
from repro.graphs.dynamics import NetworkTimeline
from repro.graphs.network import Network
from repro.rl.env import act_on_chains
from repro.routing.strategy import DestinationRouting, RoutingStrategy
from repro.traffic.sequences import DemandSequence
from repro.utils.seeding import SeedLike, rng_from_seed


@dataclass(frozen=True)
class EvaluationResult:
    """Utilisation ratios collected over an evaluation pass.

    An *empty* result (``count == 0``) is well-defined: ``mean`` and
    ``std`` return NaN silently, without numpy's empty-slice
    RuntimeWarning.  Empty results occur legitimately — e.g.
    :func:`batch_evaluate_routing` when ``memory_length`` consumes an
    entire sequence — so aggregation code must branch on ``count``, not on
    warnings.
    """

    ratios: tuple

    @property
    def mean(self) -> float:
        if not self.ratios:
            return float("nan")
        return float(np.mean(self.ratios))

    @property
    def std(self) -> float:
        if not self.ratios:
            return float("nan")
        return float(np.std(self.ratios))

    @property
    def count(self) -> int:
        return len(self.ratios)

    def __repr__(self) -> str:
        return f"EvaluationResult(mean={self.mean:.4f}, std={self.std:.4f}, n={self.count})"


@dataclass(frozen=True)
class BatchEvaluationResult:
    """Per-network evaluation results from one batch call."""

    per_network: tuple

    @property
    def ratios(self) -> tuple:
        """All utilisation ratios, concatenated in network order."""
        return tuple(r for result in self.per_network for r in result.ratios)

    @property
    def combined(self) -> EvaluationResult:
        """One result pooling every network's ratios."""
        return EvaluationResult(self.ratios)

    @property
    def mean(self) -> float:
        return self.combined.mean

    def __repr__(self) -> str:
        return (
            f"BatchEvaluationResult(networks={len(self.per_network)}, "
            f"mean={self.mean:.4f}, n={len(self.ratios)})"
        )


NetworkGroups = list[tuple[Network, list[DemandSequence]]]


def _as_groups(
    networks: Union[Network, Sequence[Network]],
    traffic_sequences: Union[Sequence[DemandSequence], Sequence[Sequence[DemandSequence]]],
) -> NetworkGroups:
    """Normalise the (networks, sequences) input into aligned pairs."""
    if isinstance(networks, Network):
        return [(networks, list(traffic_sequences))]
    networks = list(networks)
    groups = [list(group) for group in traffic_sequences]
    if len(groups) != len(networks):
        raise ValueError(
            f"{len(networks)} networks but {len(groups)} sequence groups; "
            "pass one group of demand sequences per network"
        )
    return list(zip(networks, groups))


def warm_lp_cache(
    network: Network,
    sequences: Sequence[DemandSequence],
    reward_computer: RewardComputer,
    memory_length: int = 0,
    timeline: Optional[NetworkTimeline] = None,
) -> int:
    """Presolve the LP optimum for every distinct post-warmup demand matrix.

    Returns the number of distinct nonzero (network, matrix) pairs ensured
    present in the cache.  Cyclical sequences repeat a small block of
    matrices, so deduplicating before the rollout avoids interleaving LP
    solves with policy inference.

    ``timeline`` keys the warm set by the network actually in force at
    each step, so a dynamic scenario presolves against its perturbed
    variants (cached under their delta fingerprints) rather than the base
    graph; ``None`` is the static workload.
    """
    seen: set[tuple[int, bytes]] = set()
    solved = 0
    for sequence in sequences:
        for step in range(memory_length, len(sequence)):
            net = network if timeline is None else timeline.network_at(step)
            matrix = sequence.matrix(step)
            key = (id(net), matrix.tobytes())
            if key in seen:
                continue
            seen.add(key)
            if np.any(matrix > 0.0):
                reward_computer.cache.optimal_max_utilisation(net, matrix)
                solved += 1
    return solved


#: Test DMs per planned block in :func:`_rollout_policy`.  It bounds the
#: demand histories held at once (``memory_length × n²`` floats per DM);
#: forwards are batch-invariant and the block scorer is exact, so it never
#: changes a result.
EVALUATION_BATCH = 256


def _rollout_policy(
    policy,
    network: Network,
    sequences: list[DemandSequence],
    *,
    iterative: bool,
    memory_length: int,
    softmin_gamma: float,
    weight_scale: float,
    rewarder: RewardComputer,
    seed: SeedLike,
    timeline: Optional[NetworkTimeline] = None,
) -> EvaluationResult:
    """Deterministically score the policy on every post-warm-up step.

    No environment is stepped.  Each test DM (round-robin sequence order,
    each on the network in force at its step) is one chain of the
    environment's, planned from a fresh start; every block of
    :data:`EVALUATION_BATCH` chains runs through PPO's rollout loop,
    :func:`~repro.rl.env.act_on_chains`, in lockstep wavefronts (one
    forward for one-shot chains, ``num_edges`` for iterative ones) and is
    scored by one stacked :meth:`~repro.envs.routing_env.WorkloadEnv.score_chains`
    call.  The environment validates the workload, owns the normaliser and
    builds and scores the chains; forwards are batch-invariant and the
    block scorer exact, so results equal stepping it by hand bit for bit.
    """
    env = make_routing_env(
        network,
        sequences,
        iterative=iterative,
        memory_length=memory_length,
        softmin_gamma=softmin_gamma,
        weight_scale=weight_scale,
        reward_computer=rewarder,
        seed=seed,
        sample_sequences=False,
        dynamics=timeline,
    )
    rng = rng_from_seed(seed)
    steps = [
        (sequence, step) for sequence in sequences for step in range(memory_length, len(sequence))
    ]
    ratios = []
    for start in range(0, len(steps), EVALUATION_BATCH):
        block = steps[start : start + EVALUATION_BATCH]
        chains = [env.chain(sequence, step) for sequence, step in block]
        act_on_chains(policy, chains, rng, deterministic=True)
        ratios.extend((-env.score_chains(chains)).tolist())
    return EvaluationResult(tuple(ratios))


DynamicsFactory = Callable[[Network, int], NetworkTimeline]


def _group_timeline(
    dynamics: Optional[DynamicsFactory],
    network: Network,
    sequences: list[DemandSequence],
) -> tuple[Optional[NetworkTimeline], list[DemandSequence]]:
    """Build this group's timeline and apply its demand overlay.

    Returns ``(None, sequences)`` — the untouched input — when there is no
    dynamics factory or the factory produces a trivial timeline, so the
    static evaluation path stays bit-identical object for object.
    """
    if dynamics is None or not sequences:
        return None, sequences
    timeline = dynamics(network, max(len(s) for s in sequences))
    if timeline.is_trivial:
        return None, sequences
    return timeline, [timeline.transform_sequence(s) for s in sequences]


def batch_evaluate(
    policy,
    networks: Union[Network, Sequence[Network]],
    traffic_sequences: Union[Sequence[DemandSequence], Sequence[Sequence[DemandSequence]]],
    *,
    iterative: bool = False,
    memory_length: int = 5,
    softmin_gamma: float = 2.0,
    weight_scale: float = 3.0,
    reward_computer: Optional[RewardComputer] = None,
    seed: SeedLike = 0,
    backend: str = "auto",
    dynamics: Optional[DynamicsFactory] = None,
) -> BatchEvaluationResult:
    """Evaluate one policy over many (network, demand-sequence) workloads.

    Parameters
    ----------
    policy:
        Any :class:`~repro.policies.base.ActorCriticPolicy` (MLP, one-shot
        GNN, or — with ``iterative=True`` — the iterative GNN).  Per
        network, a one-shot policy makes one ``act_batch(deterministic=True)``
        call per 256 test steps (``EVALUATION_BATCH``, which bounds the
        histories held in memory); the iterative policy makes one per edge
        over each such block of test DMs.  Each block is scored by one
        stacked call.
    networks:
        A single :class:`Network` or a sequence of them.
    traffic_sequences:
        For a single network, its demand sequences; for several networks,
        one group of demand sequences per network, aligned by index.
    iterative:
        Whether the policy sets one edge per sub-step (paper §VII-B).
    memory_length / softmin_gamma / weight_scale:
        Environment configuration, matching training.
    reward_computer:
        Optionally share an LP cache with training/evaluation elsewhere.
    seed:
        Rollout seed (only used for tie-breaking; actions are deterministic).
    backend:
        Balance-system solver for the rollouts' flow simulation
        (``"auto"``/``"dense"``/``"sparse"``), bound with
        :func:`repro.engine.backend.default_backend` for the whole call.
    dynamics:
        Optional factory ``(network, length) -> NetworkTimeline`` making
        the scenario time-varying: each group's rollouts score step ``t``
        against the timeline's network at ``t`` (with its demand overlay
        applied), and the warm pass presolves the perturbed variants under
        their delta fingerprints.  ``None`` is the static path, bit for
        bit.

    Returns
    -------
    A :class:`BatchEvaluationResult` with one :class:`EvaluationResult` per
    network plus pooled views.
    """
    rewarder = reward_computer or RewardComputer()
    results = []
    with default_backend(backend):
        for network, sequences in _as_groups(networks, traffic_sequences):
            timeline, sequences = _group_timeline(dynamics, network, sequences)
            warm_lp_cache(network, sequences, rewarder, memory_length, timeline=timeline)
            results.append(
                _rollout_policy(
                    policy,
                    network,
                    sequences,
                    iterative=iterative,
                    memory_length=memory_length,
                    softmin_gamma=softmin_gamma,
                    weight_scale=weight_scale,
                    rewarder=rewarder,
                    seed=seed,
                    timeline=timeline,
                )
            )
    return BatchEvaluationResult(tuple(results))


def _routing_ratios(
    routing: Union[RoutingStrategy, Callable[[Network], RoutingStrategy]],
    network: Network,
    stacked: np.ndarray,
    rewarder: RewardComputer,
) -> tuple:
    """Utilisation ratios of one strategy over stacked demands on one network."""
    strategy = routing(network) if callable(routing) else routing
    if isinstance(strategy, DestinationRouting):
        loads = destination_link_loads_sequence(network, strategy.destination_table(), stacked)
        utilisations = (loads / network.capacities).max(axis=1)
        return tuple(
            rewarder.ratio_from_achieved(network, u, dm)[0]
            for u, dm in zip(utilisations, stacked)
        )
    return tuple(rewarder.utilisation_ratio(network, strategy, dm) for dm in stacked)


def batch_evaluate_routing(
    routing: Union[RoutingStrategy, Callable[[Network], RoutingStrategy]],
    networks: Union[Network, Sequence[Network]],
    traffic_sequences: Union[Sequence[DemandSequence], Sequence[Sequence[DemandSequence]]],
    *,
    memory_length: int = 5,
    reward_computer: Optional[RewardComputer] = None,
    backend: str = "auto",
    dynamics: Optional[DynamicsFactory] = None,
) -> BatchEvaluationResult:
    """Evaluate a fixed routing over whole demand sequences, batched.

    ``routing`` is either a concrete strategy (single-network case) or a
    factory called once per network (e.g. ``shortest_path_routing``).
    Destination-based strategies take the factorised sequence path: one
    multi-RHS solve per destination covers every post-warmup demand matrix
    — on the sparse ``backend`` that is one shared ``splu`` factorisation
    per destination.  ``backend`` is bound with
    :func:`repro.engine.backend.default_backend` for the whole call, so
    every strategy kind solves on it.

    With ``dynamics`` (a factory ``(network, length) -> NetworkTimeline``)
    the post-warmup steps regroup by the network in force at each step:
    the strategy is rebuilt per distinct variant — routing reacts to the
    perturbation, exactly as a deployed protocol would — and each
    variant's steps still share one factorised multi-RHS solve, so a
    link-flap timeline costs one extra factorisation, not one per step.
    """
    rewarder = reward_computer or RewardComputer()
    results = []
    with default_backend(backend):
        for network, sequences in _as_groups(networks, traffic_sequences):
            timeline, sequences = _group_timeline(dynamics, network, sequences)
            if timeline is not None and not callable(routing):
                raise ValueError(
                    "a dynamic scenario rebuilds the strategy per perturbed network; "
                    "pass a factory (network -> RoutingStrategy), not a concrete strategy"
                )
            entries = [
                (step, sequence.matrix(step))
                for sequence in sequences
                for step in range(memory_length, len(sequence))
            ]
            if not entries:
                results.append(EvaluationResult(()))
                continue
            if timeline is None:
                stacked = np.stack([matrix for _, matrix in entries])
                results.append(
                    EvaluationResult(_routing_ratios(routing, network, stacked, rewarder))
                )
                continue
            # Bucket the flattened steps by the variant network in force,
            # evaluate each bucket on the factorised path, then scatter the
            # ratios back into original (sequence, step) order.
            buckets: dict[int, tuple[Network, list[int]]] = {}
            for index, (step, _) in enumerate(entries):
                variant = timeline.network_at(step)
                buckets.setdefault(id(variant), (variant, []))[1].append(index)
            ratios: list = [None] * len(entries)
            for variant, indices in buckets.values():
                stacked = np.stack([entries[i][1] for i in indices])
                variant_ratios = _routing_ratios(routing, variant, stacked, rewarder)
                for i, ratio in zip(indices, variant_ratios):
                    ratios[i] = ratio
            results.append(EvaluationResult(tuple(ratios)))
    return BatchEvaluationResult(tuple(results))
