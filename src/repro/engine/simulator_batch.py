"""Batched flow simulation: stacked ``(I - Pᵀ)`` solves over destinations.

The scalar simulator solves one ``n × n`` linear system per destination (or
per flow) in a Python loop.  Here the systems are assembled as one
``(k, n, n)`` stack and handed to a single batched :func:`numpy.linalg.solve`
call, which dispatches to LAPACK once for the whole batch.  For a *fixed*
routing evaluated over many demand matrices the per-destination systems do
not change, so :func:`destination_link_loads_sequence` factorises each
system once and back-substitutes all timesteps as extra right-hand sides —
the fast path behind ``repro.engine.batch_evaluate`` for classical
baselines.  Many *different* routings scored together (a planned rollout's
block) stack every step's systems into one solve with
:func:`stacked_destination_link_loads`.

Every solve runs on the calling thread's bound backend
(:func:`~repro.engine.backend.default_backend`, ``"auto"`` when unbound;
see :mod:`repro.engine.backend`).  The sparse backend assembles each system as
:class:`scipy.sparse.csc_matrix`, factorises it once with
:func:`scipy.sparse.linalg.splu` — sharing factorisations across calls via
the ambient :class:`~repro.engine.backend.FactorisationCache` (chosen
with :func:`~repro.engine.backend.use_factorisation_cache`) — and
back-substitutes every right-hand side, which beats the dense stack on
large sparse topologies (``auto`` switches over by node count and edge
density).  Both backends match to 1e-8; the equivalence tests pin them.

Error semantics mirror the scalar simulator on either backend: a routing
whose loops trap flow (singular system) raises :class:`RoutingLoopError`
naming the first offending destination in ascending order, as does a
solution with significantly negative throughflow.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.engine.backend import SPLU_BREAKER, select_backend, shared_factorisation_cache
from repro.graphs.network import Network

_NEGATIVE_FLOW_TOLERANCE = 1e-8


class RoutingLoopError(RuntimeError):
    """The routing recirculates flow forever (a zero-leak loop)."""


def _stacked_systems(
    network: Network, table: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The ``(k, n, n)`` stack of ``I - Pᵀ`` balance systems.

    ``table`` holds one splitting-ratio row per batch member; ``targets[i]``
    is member ``i``'s absorbing destination (its forwarding row is zeroed).
    """
    k = table.shape[0]
    n = network.num_nodes
    systems = np.zeros((k, n, n))
    # Pᵀ[v, u] = ratio of the (unique) edge u → v; negate for I - Pᵀ.
    systems[:, network.receivers, network.senders] = -table
    systems[np.arange(k), :, targets] = 0.0  # destinations absorb
    systems[:, np.arange(n), np.arange(n)] += 1.0
    return systems


def _check_negative_flows(
    flows: np.ndarray, rhs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The scalar simulator's negative-throughflow consistency check.

    Shared by both backends so the offending destination named (first
    negative member in batch order) is identical whichever solver ran.
    Returns the flows clipped at zero.
    """
    totals = np.abs(rhs).sum(axis=1, keepdims=True)  # (k, 1, r)
    thresholds = _NEGATIVE_FLOW_TOLERANCE * np.maximum(1.0, totals)
    negative = (flows < -thresholds).any(axis=(1, 2))
    if negative.any():
        bad = int(targets[np.flatnonzero(negative)[0]])
        raise RoutingLoopError(
            f"routing to destination {bad} yields negative throughflow; "
            "the splitting ratios are inconsistent"
        )
    return np.maximum(flows, 0.0)


def _solve_dense(
    network: Network, table: np.ndarray, rhs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """All systems as one ``(k, n, n)`` stack through batched LAPACK."""
    systems = _stacked_systems(network, table, targets)
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        _raise_first_loop(network, table, targets)
        raise  # pragma: no cover - batched solve failed but no member did


def _solve_sparse(
    network: Network, table: np.ndarray, rhs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-system ``splu`` factorise-and-back-substitute, cache-shared.

    Factorisations come from the ambient cache
    (:func:`~repro.engine.backend.shared_factorisation_cache`).

    Members are visited in ascending destination order (stable, so flow
    batches with repeated targets keep their batch order) — a singular
    system therefore raises for the same first offending destination as
    the dense path's :func:`_raise_first_loop`.
    """
    cache = shared_factorisation_cache()
    flows = np.empty_like(rhs)
    for i in np.argsort(targets, kind="stable"):
        factor = cache.factorisation(network, table[i], int(targets[i]))
        solved = factor.solve(rhs[i])
        if not np.all(np.isfinite(solved)):
            # SuperLU can factor a numerically singular system without
            # raising; checking member-by-member inside the ascending walk
            # keeps the named destination the ascending-first offender no
            # matter which failure mode (factorise-raise or non-finite
            # solve) each singular member exhibits.
            raise RoutingLoopError(
                f"routing to destination {int(targets[i])} traps flow in a "
                "loop: non-finite throughflow"
            )
        flows[i] = solved
    return flows


def _solve_batch(
    network: Network,
    table: np.ndarray,
    injections: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Solve every ``(I - Pᵀ) x = b``, dense-stacked or sparse-factorised.

    ``injections`` may be ``(k, n)`` (one right-hand side each) or
    ``(k, n, r)`` (``r`` shared right-hand sides per system, the
    fixed-routing sequence path).  The bound backend resolves through
    :func:`repro.engine.backend.select_backend`; the sparse path shares
    ``splu`` factorisations through the ambient cache.  Returns
    throughflows clipped at zero after the scalar simulator's negative-flow
    consistency check.
    """
    rhs = injections if injections.ndim == 3 else injections[:, :, np.newaxis]
    if select_backend(network) == "sparse" and SPLU_BREAKER.allows():
        # The sparse path sits behind a circuit breaker: an unexpected
        # splu failure falls back to the dense stack for this batch
        # (identical flows to 1e-8), and K consecutive failures trip every
        # batch to dense until a cooldown probe succeeds.  RoutingLoopError
        # is the documented singular-system outcome, not a solver fault.
        try:
            flows = _solve_sparse(network, table, rhs, targets)
        except RoutingLoopError:
            SPLU_BREAKER.record_success()
            raise
        except Exception as exc:
            SPLU_BREAKER.record_failure()
            warnings.warn(
                f"sparse solve failed ({exc!r}); falling back to dense",
                RuntimeWarning,
                stacklevel=2,
            )
            flows = _solve_dense(network, table, rhs, targets)
        else:
            SPLU_BREAKER.record_success()
    else:
        flows = _solve_dense(network, table, rhs, targets)
    flows = _check_negative_flows(flows, rhs, targets)
    return flows if injections.ndim == 3 else flows[:, :, 0]


def _raise_first_loop(
    network: Network, table: np.ndarray, targets: np.ndarray
) -> None:
    """Identify which batch member made the batched solve singular."""
    n = network.num_nodes
    for i in np.argsort(targets, kind="stable"):
        systems = _stacked_systems(network, table[i : i + 1], targets[i : i + 1])
        try:
            np.linalg.solve(systems[0], np.zeros(n))
        except np.linalg.LinAlgError as error:
            raise RoutingLoopError(
                f"routing to destination {int(targets[i])} traps flow in a "
                f"loop: {error}"
            ) from None


def destination_link_loads(
    network: Network,
    table: np.ndarray,
    demand_matrix: np.ndarray,
) -> np.ndarray:
    """Per-edge loads for a destination-based ratio table, batched.

    Equivalent to the scalar simulator's destination loop: all sources of a
    destination share one solve; destinations without positive demand are
    skipped (their systems are never assembled, so an unused destination
    with a looping routing does not raise).

    Parameters
    ----------
    network:
        Topology.
    table:
        ``(num_nodes, num_edges)`` splitting-ratio table, row ``t`` used by
        every flow destined to ``t``.
    demand_matrix:
        ``(num_nodes, num_nodes)`` demand matrix.
    """
    demand = np.asarray(demand_matrix, dtype=np.float64)
    injections = demand.T.copy()  # injections[t, v] = demand[v, t]
    np.fill_diagonal(injections, 0.0)
    active = np.flatnonzero(injections.sum(axis=1) > 0.0)
    if active.size == 0:
        return np.zeros(network.num_edges)
    flows = _solve_batch(network, table[active], injections[active], active)
    return np.einsum("ke,ke->e", flows[:, network.senders], table[active])


def stacked_destination_link_loads(
    network: Network,
    tables: np.ndarray,
    demands: np.ndarray,
) -> np.ndarray:
    """:func:`destination_link_loads` for ``T`` (table, demand) pairs at once.

    ``tables`` is ``(T, num_nodes, num_edges)`` and ``demands``
    ``(T, n, n)``; the result is ``(T, num_edges)``, bit-identical to ``T``
    separate calls.  Every step's active destinations join one stacked
    solve; each step's loads are then its own ``einsum`` over its members.
    """
    demands = np.asarray(demands, dtype=np.float64)
    n = network.num_nodes
    # injections[step, t, v] = demands[step, v, t], zeroed at v == t.
    injections = demands.transpose(0, 2, 1).copy()
    injections[:, np.arange(n), np.arange(n)] = 0.0
    active = injections.sum(axis=2) > 0.0
    loads = np.zeros((len(demands), network.num_edges))
    steps, targets = np.nonzero(active)
    if steps.size == 0:
        return loads
    member_tables = tables[steps, targets]
    flows = _solve_batch(network, member_tables, injections[steps, targets], targets)
    sender_flows = flows[:, network.senders]
    bounds = np.r_[0, np.cumsum(active.sum(axis=1))]
    for step in np.flatnonzero(active.any(axis=1)):
        members = slice(bounds[step], bounds[step + 1])
        loads[step] = np.einsum("ke,ke->e", sender_flows[members], member_tables[members])
    return loads


def destination_link_loads_sequence(
    network: Network,
    table: np.ndarray,
    demands: np.ndarray,
) -> np.ndarray:
    """Loads for one fixed destination-based routing over many demands.

    ``demands`` has shape ``(T, n, n)``; the result has shape
    ``(T, num_edges)``.  Each active destination's system is factorised once
    and solved against all ``T`` right-hand sides together, which is the
    asymptotic win over calling :func:`destination_link_loads` per step.
    """
    demands = np.asarray(demands, dtype=np.float64)
    num_steps = demands.shape[0]
    # injections[t, v, step] = demands[step, v, t], zeroed at v == t.
    injections = demands.transpose(2, 1, 0).copy()
    injections[np.arange(network.num_nodes), np.arange(network.num_nodes), :] = 0.0
    active = np.flatnonzero(injections.sum(axis=(1, 2)) > 0.0)
    if active.size == 0:
        return np.zeros((num_steps, network.num_edges))
    flows = _solve_batch(network, table[active], injections[active], active)
    return np.einsum("kes,ke->se", flows[:, network.senders, :], table[active])


def flow_link_loads(
    network: Network,
    flows: list[tuple[int, int, float, np.ndarray]],
) -> np.ndarray:
    """Per-edge loads for per-flow routings, one stacked solve for all flows.

    ``flows`` lists ``(source, target, demand, ratios)`` for every positive
    demand entry (the caller iterates the demand matrix in source-major
    order, matching the scalar simulator's error ordering).
    """
    if not flows:
        return np.zeros(network.num_edges)
    table = np.stack([ratios for _, _, _, ratios in flows])
    targets = np.array([t for _, t, _, _ in flows], dtype=np.int64)
    injections = np.zeros((len(flows), network.num_nodes))
    for i, (s, _, d, _) in enumerate(flows):
        injections[i, s] = d
    solved = _solve_batch(network, table, injections, targets)
    return np.einsum("ke,ke->e", solved[:, network.senders], table)
