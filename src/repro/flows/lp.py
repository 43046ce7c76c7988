"""Optimal multicommodity-flow routing via linear programming.

The paper's environment computes the reward denominator by solving the
splittable multicommodity-flow (MCF) problem that minimises the maximum link
utilisation ``U_max`` (paper §II-A, Equation 1), using Google OR-Tools.  We
solve the identical LP with HiGHS.

Variables are destination-aggregated: one commodity per destination node,
``f_t(e)`` being the flow destined to ``t`` on edge ``e``, so the LP has
O(|V|·|E|) variables.  For splittable flow this has the same optimum as the
paper's per-(source, destination) formulation, since flows to the same
destination can always be merged without increasing any link load.  The
per-pair formulation lives on in the test suite as an independent oracle.

Structure reuse
---------------
The constraint system depends only on the *(network, destination-support)*
pair — across demand matrices with the same active destinations only the
equality right-hand side changes.  The fast path exploits that four ways:

* **index-arithmetic assembly** — the column-wise matrix HiGHS reads is
  built straight from the edge list (each commodity column holds its
  edge's tail, head and capacity rows), with no sparse-format conversion
  (:class:`LinearProgramStructure`);
* **constraint-structure cache** — assembled structures live in a keyed LRU
  :class:`LinearProgramCache` (mirroring the engine's
  ``FactorisationCache``).  A caller picks the cache only through the
  thread-local :func:`use_lp_cache` binding; every solve outside one uses
  the process-wide :data:`SHARED_LP_CACHE`;
* **variants as edits of their base** — a link-flap or capacity-drift
  variant (``NetworkDelta.apply``) is solved on its *base* topology's
  structure: removed links become zero upper bounds on every commodity's
  copy of their edges, scaled capacities become the ``U`` column's
  coefficients, and flows are mapped back to the variant's edge order;
* **deterministic starts** — when scipy's vendored HiGHS bindings are
  available, a base solve is primed with a primal-feasible shortest-path
  routing via ``setSolution`` (HiGHS crossovers it to a basis), and a
  variant solve starts (``setBasis``) from the base's optimal basis for
  the *same* demand matrix.  The structure memoises each direct base
  solve (basis and result) in a small LRU keyed by a digest of the
  demand's right-hand side: on a miss the variant's base is solved first,
  and a repeated base solve returns the memoised result.  Dual simplex
  then re-optimises the edits in a few pivots.  Every start is a function of
  ``(base, delta, demand)`` only, never of the last basis a structure
  happened to hold, so results do not depend on solve order and
  ``run``, ``sweep`` and the service stay bit-identical.  Without the
  bindings the same structures solve through
  :func:`scipy.optimize.linprog` unchanged.

LP *optima* are additionally memoised per ``(network fingerprint, demand
bytes)`` in :class:`OptimalUtilisationCache`, an in-memory LRU each run owns.
Optima are never persisted: a stored value would outlive the solver and
solve path that produced it, so a run's denominators would depend on what
earlier processes happened to compute.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.faults import fault_point
from repro.graphs.kernels import batch_distances_to_targets
from repro.graphs.network import Network
from repro.utils.ambient import Ambient
from repro.utils.caching import KeyedLRU
from repro.utils.resilience import CircuitBreaker
from repro.utils.validation import check_demand_matrix

# The HiGHS bindings scipy vendors for linprog (scipy >= 1.15).  Probed
# defensively: any missing symbol downgrades to the linprog fallback rather
# than failing at import time on older/newer scipy layouts.
try:  # pragma: no cover - exercised indirectly via direct_solver_available
    from scipy.optimize._highspy import _core as _highs

    for _symbol in (
        "_Highs",
        "HighsModelStatus",
        "HighsSolution",
        "HighsStatus",
        "MatrixFormat",
        "ObjSense",
        "kHighsInf",
    ):
        if not hasattr(_highs, _symbol):
            _highs = None
            break
    else:
        for _method in ("passModel", "setSolution", "setBasis", "getBasis"):
            if not hasattr(_highs._Highs, _method):
                _highs = None
                break
except ImportError:  # pragma: no cover
    _highs = None


def direct_solver_available() -> bool:
    """Whether warm-started direct-HiGHS solves are available (else linprog)."""
    return _highs is not None


#: Circuit breaker guarding the direct-HiGHS solve path.  After
#: ``failure_threshold`` consecutive *unexpected* failures (not LP
#: infeasibility, which is a legitimate typed outcome) solves trip to the
#: ``linprog`` fallback — same optimum to 1e-8, no persistent model — and a
#: single probe is retried after the cooldown (half-open).
DIRECT_SOLVER_BREAKER = CircuitBreaker("lp.direct", failure_threshold=3, cooldown_s=30.0)


@dataclass(frozen=True)
class OptimalRouting:
    """Result of an optimal-routing LP solve.

    Attributes
    ----------
    max_utilisation:
        The optimal ``U_max``: the smallest achievable maximum link
        utilisation for the demand matrix.  0.0 for an all-zero demand.
    edge_flows:
        Total flow per edge under the optimal solution, aligned with
        ``network.edges``.
    commodity_flows:
        Per-commodity edge flows; shape ``(num_commodities, num_edges)``.
        Commodity meaning depends on the formulation (per destination or
        per pair).
    """

    max_utilisation: float
    edge_flows: np.ndarray
    commodity_flows: np.ndarray

    @property
    def is_zero(self) -> bool:
        """True when the demand matrix carried no traffic."""
        return self.max_utilisation == 0.0


class InfeasibleRoutingError(RuntimeError):
    """Raised when the LP cannot be solved (e.g. disconnected demand pair)."""


def _validate_inputs(network: Network, demand_matrix: np.ndarray) -> np.ndarray:
    demand = check_demand_matrix(demand_matrix, network.num_nodes)
    if np.any(demand < 0.0):
        raise ValueError("demands must be non-negative")
    if np.any(np.diag(demand) != 0.0):
        raise ValueError("demand matrix diagonal must be zero")
    return demand


def network_fingerprint(network: Network) -> bytes:
    """Structural digest of a network: node count, edge list, capacities.

    Unlike ``hash(network)`` this cannot collide across distinct topologies
    (short of a SHA-256 collision), so it is safe as a cache key — two
    different networks hashing equal must still map to different LP optima.
    Networks are immutable, so the digest is memoised on the instance (the
    reward path hits this for every environment step).
    """
    cached = getattr(network, "_lp_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(int(network.num_nodes).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(network.senders).tobytes())
    digest.update(np.ascontiguousarray(network.receivers).tobytes())
    digest.update(np.ascontiguousarray(network.capacities).tobytes())
    result = digest.digest()
    network._lp_fingerprint = result
    return result


def demand_destinations(demand: np.ndarray) -> np.ndarray:
    """Ascending destination nodes with any incoming demand."""
    return np.flatnonzero(np.asarray(demand).sum(axis=0) > 0.0)


# ---------------------------------------------------------------------------
# Constraint assembly
# ---------------------------------------------------------------------------


#: Direct base solves a structure remembers (optimal basis and result),
#: keyed by a digest of the equality right-hand side: a variant solve of
#: the same demand matrix starts from that basis, and a repeated base
#: solve returns the result.  Sized from measured reuse: the
#: ``link-failure-flap`` preset reads a base solve back after at most
#: three others on its structure, ``zoo-large-sparse-linkflap`` right
#: after it.
BASE_MEMO_ENTRIES = 4


@dataclass(frozen=True)
class _VariantBounds:
    """A perturbed network expressed on its base structure's columns."""

    network: Network
    keep: np.ndarray  # base edge id of each variant edge, in variant order
    upper: np.ndarray  # column upper bounds: 0 on every copy of a removed edge
    capacities: np.ndarray  # base edge order; the variant's on kept edges


class LinearProgramStructure:
    """Assembled constraints for one (base network, destination-support) pair.

    For a fixed support only the equality right-hand side depends on the
    demand matrix, so one structure serves every demand matrix with the
    same active destinations: :meth:`solve` computes ``b_eq`` and solves
    against the cached column-wise matrix.  It also serves every link-flap
    or capacity-drift *variant* of its network (see :meth:`solve`), so a
    timeline's variants never assemble structures of their own.

    Assembly is index arithmetic: each commodity column of the
    column-wise matrix holds its edge's tail and head rows (minus the
    destination's deleted row) and its capacity row, so ``indptr``,
    ``indices`` and ``values`` come straight from ``np.where`` over the
    edge list, with no sparse-format conversion.  :meth:`_values` patches
    a variant's capacities into the ``U`` column for HiGHS and for the
    ``linprog`` fallback alike.

    Every direct solve starts from a point that is a function of
    ``(base, delta, demand)`` alone: a base solve from the shortest-path
    routing, a variant solve from the base's optimal basis for the same
    demand matrix.  No start carries over from an earlier solve, so
    results never depend on solve history, and a memoised base result is
    the one a fresh solve would return.
    """

    def __init__(self, network: Network, destinations):
        self.network = network
        self.destinations = np.asarray([int(t) for t in destinations], dtype=np.int64)
        if len(self.destinations) == 0:
            raise ValueError("a structure needs at least one destination")

        n, m = network.num_nodes, network.num_edges
        k = len(self.destinations)
        self.num_commodities = k
        self.num_vars = k * m + 1
        self.num_rows = k * (n - 1) + m
        self.u_index = k * m
        self.cost = np.zeros(self.num_vars)
        self.cost[self.u_index] = 1.0
        self.indptr, self.indices, self.values = self._column_wise()

        # b_eq gather mask: commodity ci's RHS is demand[:, t] with row t
        # dropped, laid out commodity-major.
        self._rhs_mask = np.ones((k, n), dtype=bool)
        self._rhs_mask[np.arange(k), self.destinations] = False

        self._model = None  # persistent HiGHS model (direct path only)
        self._warm = None  # lazily-built shortest-path warm-start data
        self._memo = KeyedLRU(BASE_MEMO_ENTRIES)  # b_eq digest -> (basis, OptimalRouting)
        self.solves = 0

    # -- assembly -------------------------------------------------------

    def _column_wise(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSC arrays of ``[a_eq; a_ub]``: rows sorted, ``U`` column last.

        Commodity ``ci``'s copy of edge ``u -> v`` has ``+1`` in node
        ``u``'s conservation row, ``-1`` in ``v``'s (either absent when it
        is the destination ``t``, whose row is deleted so rows above it
        shift down by one), and ``+1`` in the edge's capacity row; the
        ``U`` column holds ``-c(e)`` in every capacity row.
        """
        net = self.network
        n, m, k = net.num_nodes, net.num_edges, self.num_commodities
        t = self.destinations[:, None]
        block = np.arange(k, dtype=np.int64)[:, None] * (n - 1)
        tail, head = net.senders, net.receivers
        tail_row = block + tail - (tail > t)
        head_row = block + head - (head > t)
        capacity_row = k * (n - 1) + np.arange(m)
        # Node order survives the row deletion, so the lower endpoint's
        # conservation row comes first in every column.
        tail_first = tail < head
        rows = np.stack(
            [
                np.where(tail_first, tail_row, head_row),
                np.where(tail_first, head_row, tail_row),
                np.broadcast_to(capacity_row, (k, m)),
            ],
            axis=2,
        )
        signs = np.where(tail_first, 1.0, -1.0)
        values = np.stack([signs, -signs, np.ones(m)], axis=1)  # every commodity's
        present = np.stack(
            [
                np.where(tail_first, tail != t, head != t),
                np.where(tail_first, head != t, tail != t),
                np.ones((k, m), dtype=bool),
            ],
            axis=2,
        )
        indptr = np.zeros(self.num_vars + 1, dtype=np.int32)
        np.cumsum(present.sum(axis=2).ravel(), out=indptr[1:-1])
        indptr[-1] = indptr[-2] + m
        indices = np.concatenate([rows[present], capacity_row]).astype(np.int32)
        data = np.concatenate(
            [np.broadcast_to(values, (k, m, 3))[present], -np.asarray(net.capacities)]
        )
        return indptr, indices, data

    def _values(self, capacities: Optional[np.ndarray] = None) -> np.ndarray:
        """Column-wise values with ``capacities`` in the ``U`` column.

        ``None`` keeps the network's own capacities; a variant's scaled
        ones replace the last ``m`` values (the ``U`` column's ``-c(e)``).
        """
        if capacities is None:
            return self.values
        values = self.values.copy()
        values[-self.network.num_edges :] = -np.asarray(capacities)
        return values

    def _constraints(self, capacities: Optional[np.ndarray] = None) -> sparse.csc_matrix:
        """``[a_eq; a_ub]`` as CSC, with ``capacities`` as in :meth:`_values`."""
        return sparse.csc_matrix(
            (self._values(capacities), self.indices, self.indptr),
            shape=(self.num_rows, self.num_vars),
        )

    @cached_property
    def a_eq(self) -> sparse.csr_matrix:
        """Row-wise flow-conservation block (the ``linprog`` fallback's)."""
        return self._constraints()[: self.num_rows - self.network.num_edges].tocsr()

    @property
    def a_ub(self) -> sparse.csr_matrix:
        """Row-wise capacity block for the network's own capacities."""
        return self._constraints()[self.num_rows - self.network.num_edges :].tocsr()

    # -- RHS ------------------------------------------------------------

    def equality_rhs(self, demand: np.ndarray) -> np.ndarray:
        """``b_eq`` for this support: per-commodity net outflow demands."""
        return np.asarray(demand)[:, self.destinations].T[self._rhs_mask]

    # -- warm start -----------------------------------------------------

    def _warm_data(self):
        """Per-destination shortest-path trees (distances, successor edges).

        Depends only on the topology, so it is computed once per structure:
        one multi-target Dijkstra over the network's shared CSR view plus a
        vectorized first-tight-edge successor selection per commodity.
        """
        if self._warm is None:
            net = self.network
            n, m = net.num_nodes, net.num_edges
            dist = batch_distances_to_targets(net, np.ones(m), targets=self.destinations)
            succ = np.full((self.num_commodities, n), -1, dtype=np.int64)
            order = []
            edge_ids = np.arange(m)
            for ci in range(self.num_commodities):
                # Unit weights keep distances integral, so the tight-edge
                # test is exact.  Reversed assignment leaves the lowest
                # tight edge id as each node's successor (deterministic).
                tight = dist[ci, net.senders] == dist[ci, net.receivers] + 1.0
                succ[ci, net.senders[tight][::-1]] = edge_ids[tight][::-1]
                finite = np.flatnonzero(
                    np.isfinite(dist[ci]) & (np.arange(n) != self.destinations[ci])
                )
                order.append(finite[np.argsort(-dist[ci, finite], kind="stable")])
            self._warm = (dist, succ, order)
        return self._warm

    def _shortest_path_start(self, demand: np.ndarray) -> Optional[np.ndarray]:
        """A primal-feasible solution routing every demand on shortest paths.

        Returns ``None`` when some positive demand cannot reach its
        destination — the cold solve then reports infeasibility through the
        usual channel.
        """
        dist, succ, order = self._warm_data()
        net = self.network
        k, m = self.num_commodities, net.num_edges
        flows = np.zeros((k, m))
        for ci, t in enumerate(self.destinations):
            column = np.asarray(demand)[:, t]
            if np.any((column > 0.0) & ~np.isfinite(dist[ci])):
                return None
            acc = column.astype(np.float64).copy()
            for u in order[ci]:
                carried = acc[u]
                if carried <= 0.0:
                    continue
                edge = succ[ci, u]
                flows[ci, edge] += carried
                acc[net.receivers[edge]] += carried
        peak = float((flows.sum(axis=0) / net.capacities).max())
        return np.concatenate([flows.ravel(), [peak]])

    # -- variants -------------------------------------------------------

    def _variant_bounds(self, variant: Network) -> _VariantBounds:
        """Express ``variant`` (a delta of this structure's network) as bounds.

        Removed links become zero upper bounds on every commodity's copy
        of their edges; scaled capacities become the ``U`` column's
        coefficients.  The extra columns are pinned to zero and the extra
        capacity rows hold trivially, so the LP has the variant's optimum.
        """
        base = self.network
        keep = np.fromiter(
            (base.edge_index[edge] for edge in variant.edges),
            dtype=np.int64,
            count=variant.num_edges,
        )
        removed = np.ones(base.num_edges, dtype=bool)
        removed[keep] = False
        upper = np.full(self.num_vars, np.inf)
        upper[: self.u_index][np.tile(removed, self.num_commodities)] = 0.0
        capacities = np.array(base.capacities, dtype=np.float64)
        capacities[keep] = variant.capacities
        return _VariantBounds(variant, keep, upper, capacities)

    # -- solving --------------------------------------------------------

    @staticmethod
    def _failure(network: Network, detail: str) -> InfeasibleRoutingError:
        return InfeasibleRoutingError(f"optimal-routing LP failed on {network!r}: {detail}")

    def _result(self, x: np.ndarray, bounds: Optional[_VariantBounds] = None) -> OptimalRouting:
        k, m = self.num_commodities, self.network.num_edges
        commodity_flows = x[: k * m].reshape(k, m)
        if bounds is not None:
            commodity_flows = commodity_flows[:, bounds.keep]
        return OptimalRouting(float(x[self.u_index]), commodity_flows.sum(axis=0), commodity_flows)

    def solve(self, demand: np.ndarray, variant: Optional[Network] = None) -> OptimalRouting:
        """Solve for one demand matrix on this support.

        ``variant`` names a perturbation of this structure's network
        (``NetworkDelta.apply``: links removed, capacities scaled) to solve
        on instead; its flows come back in the variant's edge order.

        The direct-HiGHS path sits behind :data:`DIRECT_SOLVER_BREAKER`:
        an unexpected solver failure falls back to ``linprog`` for *this*
        solve (identical optimum to 1e-8, a variant's bounds included),
        and after K consecutive failures the breaker opens and solves go
        straight to ``linprog`` until a cooldown probe succeeds.
        :class:`InfeasibleRoutingError` is a legitimate typed outcome,
        never a breaker failure.
        """
        self.solves += 1
        bounds = None if variant is None else self._variant_bounds(variant)
        b_eq = self.equality_rhs(demand)
        if _highs is None or not DIRECT_SOLVER_BREAKER.allows():
            return self._solve_linprog(b_eq, bounds)
        try:
            fault_point("lp.solve")
            result = self._solve_direct(demand, b_eq, bounds)
        except InfeasibleRoutingError:
            DIRECT_SOLVER_BREAKER.record_success()
            raise
        except Exception as exc:
            DIRECT_SOLVER_BREAKER.record_failure()
            # A wedged persistent model would poison every later re-solve;
            # drop it so the next direct attempt rebuilds from scratch.
            self._model = None
            warnings.warn(
                f"direct LP solve failed ({exc!r}); falling back to linprog",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._solve_linprog(b_eq, bounds)
        DIRECT_SOLVER_BREAKER.record_success()
        return result

    def _solve_linprog(self, b_eq: np.ndarray, bounds: Optional[_VariantBounds]) -> OptimalRouting:
        if bounds is None:
            capacities, column_bounds, network = None, (0, None), self.network
        else:
            capacities = bounds.capacities
            column_bounds = np.column_stack([np.zeros(self.num_vars), bounds.upper])
            network = bounds.network
        result = linprog(
            self.cost,
            A_ub=self._constraints(capacities)[self.num_rows - self.network.num_edges :],
            b_ub=np.zeros(self.network.num_edges),
            A_eq=self.a_eq,
            b_eq=b_eq,
            bounds=column_bounds,
            method="highs",
        )
        if not result.success:
            raise self._failure(network, result.message)
        return self._result(result.x, bounds)

    def _pass_model(self, b_eq: np.ndarray, bounds: Optional[_VariantBounds]) -> None:
        """Load the base LP for ``b_eq``, with ``bounds``' edits if given.

        The array form of ``passModel`` reads the numpy buffers directly;
        filling a ``HighsLp``'s fields instead converts every entry through
        Python, which costs more than the load itself.  The arrays go in
        bare: building a scipy matrix around them costs about a tenth of
        an Abilene re-solve.
        """
        if self._model is None:
            self._model = _highs._Highs()
            self._model.setOptionValue("output_flag", False)
        m = self.network.num_edges
        if bounds is None:
            values, upper = self._values(), np.full(self.num_vars, _highs.kHighsInf)
        else:
            values, upper = self._values(bounds.capacities), bounds.upper
        self._model.passModel(
            self.num_vars,
            self.num_rows,
            len(values),
            int(_highs.MatrixFormat.kColwise),
            int(_highs.ObjSense.kMinimize),
            0.0,  # objective offset
            self.cost,
            np.zeros(self.num_vars),
            upper,
            np.concatenate([b_eq, np.full(m, -_highs.kHighsInf)]),
            np.concatenate([b_eq, np.zeros(m)]),
            self.indptr,
            self.indices,
            values,
            np.zeros(self.num_vars, dtype=np.int32),  # every column continuous
        )

    def _solve_direct(
        self, demand: np.ndarray, b_eq: np.ndarray, bounds: Optional[_VariantBounds]
    ) -> OptimalRouting:
        key = hashlib.sha256(b_eq).digest()
        memo = self._memo.get(key)
        if bounds is None:
            if memo is not None:
                return memo[1]
            self._pass_model(b_eq, None)
            start = self._shortest_path_start(demand)
            if start is not None:
                solution = _highs.HighsSolution()
                solution.col_value = start
                solution.value_valid = True
                self._model.setSolution(solution)
        else:
            if memo is None:
                try:
                    self.solve(demand)  # memoises the base's basis and result
                except InfeasibleRoutingError as exc:
                    raise self._failure(bounds.network, f"its base is infeasible: {exc}") from None
                memo = self._memo.get(key)  # None if the base fell back to linprog
            self._pass_model(b_eq, bounds)
            if memo is not None and self._model.setBasis(memo[0]) != _highs.HighsStatus.kOk:
                warnings.warn(
                    "HiGHS rejected the base's optimal basis; the variant solves from a cold start",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._model.run()
        status = self._model.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            network = self.network if bounds is None else bounds.network
            raise self._failure(network, self._model.modelStatusToString(status))
        result = self._result(np.asarray(self._model.getSolution().col_value), bounds)
        if bounds is None:
            # Shared with every later solve of this DM: keep it immutable.
            result.edge_flows.flags.writeable = False
            result.commodity_flows.flags.writeable = False
            self._memo.insert(key, (self._model.getBasis(), result))
        return result


class LinearProgramCache(KeyedLRU):
    """Keyed LRU of :class:`LinearProgramStructure` instances.

    Keys are exact: ``(network fingerprint, destination support)``, and
    the network is always a *base* topology: a dynamics variant is looked
    up under its base, so a timeline's variants share its structures.  A
    hit returns the shared structure with its assembled matrix, solver
    model and memoised base solves, mirroring how the engine's
    ``FactorisationCache`` shares ``splu`` factorisations.  A hit never
    changes a result: every solve starts from a point fixed by
    ``(base, delta, demand)`` alone.
    """

    def __init__(self, max_entries: int = 32):
        super().__init__(max_entries)

    def structure(self, network: Network, destinations) -> LinearProgramStructure:
        key = (network_fingerprint(network), tuple(int(t) for t in destinations))
        return self.lookup(key, lambda: LinearProgramStructure(network, destinations))


#: Structures shared by every solve outside a :func:`use_lp_cache` block —
#: separate ``RewardComputer`` instances and repeated scenario runs in one
#: process reuse each other's assembled systems and solver models.
SHARED_LP_CACHE = LinearProgramCache(max_entries=32)

_LP_CACHE = Ambient(SHARED_LP_CACHE)


def shared_lp_cache() -> LinearProgramCache:
    """The ambient default :class:`LinearProgramCache`.

    Normally the process-wide :data:`SHARED_LP_CACHE`; inside a
    :func:`use_lp_cache` block on the calling thread, that thread's
    injected cache instead.
    """
    return _LP_CACHE.value


def use_lp_cache(cache: LinearProgramCache):
    """Route this thread's LP solves through ``cache``.

    The one way to give a solve a private structure cache: a long-lived
    deployment (the routing service) keeps its warm structures this way
    without threading a handle through every layer, and without other
    threads observing the override.
    """
    return _LP_CACHE.bind(cache)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_optimal_max_utilisation(
    network: Network, demand_matrix: np.ndarray
) -> OptimalRouting:
    """Minimise the maximum link utilisation for ``demand_matrix``.

    Destination-aggregated formulation.  Variables are ``f_t(e) >= 0`` for
    every destination ``t`` with incoming demand and every edge ``e``, plus
    the scalar ``U``:

    * minimise ``U``
    * flow conservation: for every such ``t`` and node ``v != t``,
      ``sum_out f_t - sum_in f_t = D[v, t]``
    * capacity: for every edge, ``sum_t f_t(e) <= U * c(e)``.

    The constraint structure is fetched from the ambient cache
    (:func:`shared_lp_cache`), so repeated solves over the same
    destination support reuse the assembled matrix.  A dynamics variant
    (``NetworkDelta.apply``) is solved on its *base* network's structure
    as bound and coefficient edits, starting from the base's optimal basis
    for the same demand matrix.

    Raises
    ------
    InfeasibleRoutingError
        If some demand's source cannot reach its destination.
    """
    demand = _validate_inputs(network, demand_matrix)
    destinations = demand_destinations(demand)
    if len(destinations) == 0:
        return OptimalRouting(0.0, np.zeros(network.num_edges), np.zeros((0, network.num_edges)))
    origin = getattr(network, "_dynamics_delta", None)
    if origin is None:
        return shared_lp_cache().structure(network, destinations).solve(demand)
    return shared_lp_cache().structure(origin[0], destinations).solve(demand, network)


# ---------------------------------------------------------------------------
# Optimum memoisation
# ---------------------------------------------------------------------------


class OptimalUtilisationCache(KeyedLRU):
    """Memoises LP optima per (network fingerprint, demand-matrix bytes).

    The RL environment revisits the same cyclical DMs thousands of times per
    training run; caching the LP result makes the reward computation cheap
    after the first episode (the paper notes the LP step makes training
    CPU-bound — this cache is the practical mitigation).

    True LRU: hits refresh recency (``OrderedDict.move_to_end``), so the
    working set of a cyclical sequence never gets evicted by one-off
    matrices.  Keys are structural fingerprints, not ``hash(network)`` —
    hash collisions across distinct networks must miss, not silently return
    the wrong optimum.

    Builds are single-flight per key (:meth:`KeyedLRU.lookup`), so request
    threads that miss on the same matrix share one solve.
    """

    def __init__(self, max_entries: int = 4096):
        super().__init__(max_entries)

    def optimal_max_utilisation(self, network: Network, demand_matrix: np.ndarray) -> float:
        return self.lookup(
            (network_fingerprint(network), np.asarray(demand_matrix).tobytes()),
            lambda: float(solve_optimal_max_utilisation(network, demand_matrix).max_utilisation),
        )


__all__ = [
    "DIRECT_SOLVER_BREAKER",
    "InfeasibleRoutingError",
    "LinearProgramCache",
    "LinearProgramStructure",
    "OptimalRouting",
    "OptimalUtilisationCache",
    "SHARED_LP_CACHE",
    "demand_destinations",
    "direct_solver_available",
    "network_fingerprint",
    "shared_lp_cache",
    "solve_optimal_max_utilisation",
    "use_lp_cache",
]
