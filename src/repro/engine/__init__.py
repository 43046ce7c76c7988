"""``repro.engine`` — the vectorized batch evaluation engine.

Array-programming replacements for the per-destination Python loops in
:mod:`repro.routing.softmin` and :mod:`repro.flows.simulator`, plus the
batch evaluation API built on top of them:

* :mod:`~repro.engine.softmin_batch` — all-destination softmin splitting
  ratios as one ``(n, e)`` tensor program;
* :mod:`~repro.engine.simulator_batch` — stacked ``(I - Pᵀ)`` balance
  systems solved in one batched LAPACK call, with a factorised
  multi-right-hand-side path for fixed routings over demand sequences;
* :mod:`~repro.engine.backend` — dense/sparse solver selection, bound
  per thread with :func:`default_backend` (``"auto"|"dense"|"sparse"``:
  sparse ``splu`` factorisations for large low-density topologies, shared
  across solves through a keyed :class:`FactorisationCache`);
* :mod:`~repro.engine.evaluate` — :func:`batch_evaluate` /
  :func:`batch_evaluate_routing`, evaluating many traffic matrices, seeds
  and topologies per call; their ``backend`` argument is bound once around
  the whole call.
"""

from repro.engine.backend import (
    BACKENDS,
    SPARSE_MAX_DENSITY,
    SPARSE_MIN_NODES,
    FactorisationCache,
    check_backend,
    default_backend,
    edge_density,
    select_backend,
    shared_factorisation_cache,
    use_factorisation_cache,
)
from repro.engine.softmin_batch import batch_softmin_ratios
from repro.graphs.kernels import batch_distances_to_targets
from repro.engine.simulator_batch import (
    RoutingLoopError,
    destination_link_loads,
    destination_link_loads_sequence,
    flow_link_loads,
)

__all__ = [
    "BACKENDS",
    "SPARSE_MIN_NODES",
    "SPARSE_MAX_DENSITY",
    "FactorisationCache",
    "check_backend",
    "default_backend",
    "edge_density",
    "select_backend",
    "shared_factorisation_cache",
    "use_factorisation_cache",
    "batch_distances_to_targets",
    "batch_softmin_ratios",
    "RoutingLoopError",
    "destination_link_loads",
    "destination_link_loads_sequence",
    "flow_link_loads",
    "BatchEvaluationResult",
    "EvaluationResult",
    "batch_evaluate",
    "batch_evaluate_routing",
    "warm_lp_cache",
]

_LAZY = {
    "BatchEvaluationResult": "repro.engine.evaluate",
    "EvaluationResult": "repro.engine.evaluate",
    "batch_evaluate": "repro.engine.evaluate",
    "batch_evaluate_routing": "repro.engine.evaluate",
    "warm_lp_cache": "repro.engine.evaluate",
}


def __getattr__(name: str):
    # evaluate imports the environment layer, which itself imports
    # the engine's array modules — loading them lazily keeps the package
    # import acyclic.
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
