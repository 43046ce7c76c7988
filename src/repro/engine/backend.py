"""Solver backend selection and the shared factorisation cache.

The balance systems ``(I - Pᵀ) x = b`` the simulator solves are extremely
sparse on real topologies — a node's row has one entry per in-edge, and ISP
graphs carry average degrees of 2–6 regardless of size — so from a couple
of hundred nodes upward a sparse LU factorisation
(:func:`scipy.sparse.linalg.splu`) beats the dense stacked LAPACK solve,
and the gap widens cubically with node count.  This module holds the three
pieces that decide *which* solver runs:

* **the ambient backend** — :func:`default_backend` binds
  ``"auto" | "dense" | "sparse"`` for the calling thread, the one way to
  choose a backend.  ``"dense"``/``"sparse"`` force an implementation for
  every solve in the block; ``"auto"`` (also the unbound default) applies
  the selection rule below.  High-level entry points (``batch_evaluate``,
  ``batch_evaluate_routing``, the routing service) take a ``backend``
  argument and bind it once around their whole call.
* **the selection rule** — sparse iff the topology has at least
  :data:`SPARSE_MIN_NODES` nodes **and** directed edge density
  ``num_edges / (n * (n - 1))`` at most :data:`SPARSE_MAX_DENSITY`.  Dense
  LAPACK wins below the node floor (the per-system Python loop dominates),
  and dense graphs give LU factors with no sparsity to exploit.
* **:class:`FactorisationCache`** — for a *fixed* routing the
  per-destination systems never change, so their LU factorisations are
  shared across repeated solves (evaluation passes over cyclical traffic,
  PPO minibatch evaluation steps revisiting the same deterministic
  routing), mirroring how ``warm_lp_cache`` shares LP optima.  The sparse
  path uses the module-level shared cache unless the calling thread binds
  a private one with :func:`use_factorisation_cache`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.faults import fault_point
from repro.graphs.network import Network
from repro.utils.ambient import Ambient
from repro.utils.caching import KeyedLRU
from repro.utils.resilience import CircuitBreaker

#: Valid values for :func:`default_backend` and every ``backend`` argument.
BACKENDS = ("auto", "dense", "sparse")

#: ``auto`` never picks sparse below this node count: per-system Python
#: overhead outweighs the LAPACK batch until the cubic term dominates
#: (measured crossover ≈ 200 nodes on ISP-like sparsity, cold caches).
SPARSE_MIN_NODES = 192

#: ``auto`` never picks sparse above this directed edge density — dense
#: graphs leave the LU factors with nothing to exploit.
SPARSE_MAX_DENSITY = 0.05

#: Circuit breaker guarding the sparse ``splu`` path.  After
#: ``failure_threshold`` consecutive *unexpected* failures (not
#: ``RoutingLoopError``, which is the documented singular-system outcome)
#: batch solves trip to the dense LAPACK fallback — identical results to
#: 1e-8 — and a single sparse probe is retried after the cooldown.
SPLU_BREAKER = CircuitBreaker("backend.splu", failure_threshold=3, cooldown_s=30.0)


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it lower-cased."""
    if not isinstance(backend, str) or backend.lower() not in BACKENDS:
        raise ValueError(
            f"backend must be one of {list(BACKENDS)}, got {backend!r}"
        )
    return backend.lower()


def edge_density(network: Network) -> float:
    """Directed edge density ``num_edges / (n * (n - 1))``."""
    n = network.num_nodes
    return network.num_edges / (n * (n - 1))


# What the balance-system solves underneath a block run on, per thread.
_BACKEND = Ambient("auto")


def default_backend(backend: str):
    """Bind the calling thread's balance-system backend for a ``with`` block.

    ``"dense"``/``"sparse"`` pin every solve in the block; ``"auto"`` falls
    through to the size/density rule of :func:`select_backend`.  The
    binding is per-thread, so concurrent ``batch_evaluate`` calls on
    different threads cannot observe each other's backend.
    """
    return _BACKEND.bind(check_backend(backend))


def select_backend(network: Network) -> str:
    """Resolve the bound backend to ``"dense"`` or ``"sparse"`` for ``network``.

    A bound ``"dense"``/``"sparse"`` (:func:`default_backend`) passes
    through; ``"auto"`` applies the selection rule: sparse iff
    ``num_nodes >= SPARSE_MIN_NODES`` and
    ``edge_density(network) <= SPARSE_MAX_DENSITY``.
    """
    backend = _BACKEND.value
    if backend != "auto":
        return backend
    if (
        network.num_nodes >= SPARSE_MIN_NODES
        and edge_density(network) <= SPARSE_MAX_DENSITY
    ):
        return "sparse"
    return "dense"


class _BalancePattern:
    """Every slot an ``I - Pᵀ`` system of one topology can fill, in CSC order.

    Column ``u`` holds the diagonal ``(u, u)`` and one ``(v, u)`` slot per
    edge ``u → v``, rows ascending; ``edge_slot``/``diagonal_slot`` place
    edge ratios and the unit diagonal into that layout.
    """

    __slots__ = ("rows", "column_starts", "edge_slot", "diagonal_slot")

    def __init__(self, network: Network):
        n, m = network.num_nodes, network.num_edges
        columns = np.concatenate([network.senders, np.arange(n)])
        rows = np.concatenate([network.receivers, np.arange(n)])
        order = np.lexsort((rows, columns))
        slot = np.empty(m + n, dtype=np.int64)
        slot[order] = np.arange(m + n)
        self.rows = rows[order].astype(np.int32)
        self.column_starts = np.r_[0, np.cumsum(np.bincount(columns, minlength=n))]
        self.edge_slot = slot[:m]
        self.diagonal_slot = slot[m:]


def _balance_pattern(network: Network) -> _BalancePattern:
    # Networks are immutable, so the pattern is memoised on the instance.
    pattern = getattr(network, "_balance_pattern", None)
    if pattern is None:
        pattern = network._balance_pattern = _BalancePattern(network)
    return pattern


def sparse_balance_system(
    network: Network, row: np.ndarray, target: int
) -> csc_matrix:
    """Assemble one ``I - Pᵀ`` balance system as canonical CSC.

    Identical entries to the dense ``_stacked_systems`` member: transposed
    splitting ratios negated, the destination's forwarding row zeroed (it
    absorbs), unit diagonal added.  The arrays are written in one pass
    over the topology's cached slot pattern: zero entries dropped, row
    indices sorted, ``int32`` indices — byte for byte what
    ``csc_matrix(coo) + identity`` gives, so ``splu`` sees the same input.
    """
    # The dense member is ``M[v, u] = -ratio(u→v)`` with the destination's
    # *outgoing* entries (sender == target) zeroed: the destination absorbs,
    # so its forwarding ratios — column ``target`` after the transpose —
    # never re-inject flow.
    pattern = _balance_pattern(network)
    n = network.num_nodes
    data = np.empty(len(pattern.rows))
    data[pattern.edge_slot] = -row
    data[pattern.column_starts[target] : pattern.column_starts[target + 1]] = 0.0
    data[pattern.diagonal_slot] = 1.0
    kept = data != 0.0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.add.reduceat(kept, pattern.column_starts[:-1], dtype=np.int32), out=indptr[1:])
    return csc_matrix((data[kept], pattern.rows[kept], indptr), shape=(n, n))


def factorise_balance_system(network: Network, row: np.ndarray, target: int):
    """``splu`` factorisation of one destination's balance system.

    Raises :class:`~repro.engine.simulator_batch.RoutingLoopError` naming
    the destination when the system is singular (a zero-leak routing loop),
    matching the dense path's error semantics.
    """
    from repro.engine.simulator_batch import RoutingLoopError

    fault_point("backend.factorise")
    try:
        return splu(sparse_balance_system(network, row, target))
    except RuntimeError as error:
        raise RoutingLoopError(
            f"routing to destination {int(target)} traps flow in a loop: {error}"
        ) from None


class FactorisationCache(KeyedLRU):
    """LRU cache of per-destination ``splu`` factorisations.

    Keys are exact: ``(topology structure, destination, ratio-row bytes)``
    — capacities are irrelevant to the balance system and excluded.  A hit
    returns the shared ``SuperLU`` object; repeated solves against the same
    fixed routing (evaluation over cyclical sequences, PPO minibatch
    evaluation steps) then skip straight to back-substitution, the same
    amortisation ``warm_lp_cache`` provides for LP optima.
    """

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries)

    def factorisation(self, network: Network, row: np.ndarray, target: int):
        """The LU factorisation for ``row``'s system, cached."""
        key = (network.num_nodes, network.edges, int(target), row.tobytes())
        return self.lookup(key, lambda: factorise_balance_system(network, row, target))


#: Factorisations shared by every sparse solve outside a
#: :func:`use_factorisation_cache` block — this is what lets separate
#: ``batch_evaluate`` calls and PPO minibatch evaluation steps reuse each
#: other's work.
SHARED_FACTORISATION_CACHE = FactorisationCache(max_entries=256)


_FACTORISATION_CACHE = Ambient(SHARED_FACTORISATION_CACHE)


def shared_factorisation_cache() -> FactorisationCache:
    """The ambient default :class:`FactorisationCache`.

    Normally the process-wide :data:`SHARED_FACTORISATION_CACHE`; inside a
    :func:`use_factorisation_cache` block on the calling thread, that
    thread's injected cache instead.
    """
    return _FACTORISATION_CACHE.value


def use_factorisation_cache(cache: FactorisationCache):
    """Route this thread's sparse solves through ``cache``.

    The one way to give solves a private factorisation cache.  The service
    binds each deployment's private cache this way, so solves that would
    use the module global hit the deployment's cache instead — without
    threading a handle through the environment layer, and without
    affecting other threads.
    """
    return _FACTORISATION_CACHE.bind(cache)


__all__ = [
    "BACKENDS",
    "SPARSE_MIN_NODES",
    "SPARSE_MAX_DENSITY",
    "SPLU_BREAKER",
    "check_backend",
    "edge_density",
    "default_backend",
    "select_backend",
    "sparse_balance_system",
    "factorise_balance_system",
    "FactorisationCache",
    "SHARED_FACTORISATION_CACHE",
    "shared_factorisation_cache",
    "use_factorisation_cache",
]
