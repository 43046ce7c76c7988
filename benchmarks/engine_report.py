#!/usr/bin/env python
"""Engine speedup, solver-backend and LP-phase comparison report.

Times the production evaluation path against the loop oracles in
``tests/helpers.py`` and the sparse balance-system backend against the
dense one, on workloads sized per experiment-scale preset:

* **engine** — softmin translation + flow simulation, batched engine vs
  the per-destination scalar loops (acceptance floor ≥ 5x on 20 nodes);
* **backend** — dense stacked LAPACK vs sparse ``splu`` on fixed-routing
  sequence solves, across a topology-size ladder that spans the crossover;
* **LP phase** — the structure-reusing LP layer vs loop assembly plus a
  fresh ``linprog`` per matrix on the ``zoo-large-sparse`` warm-up
  (acceptance floor ≥ 5x).

Each comparison asserts both sides agree to 1e-8 before timing.
``benchmarks/test_microbench.py`` runs the acceptance floors in tier-1;
this script prints the human-readable tables::

    python benchmarks/engine_report.py --preset quick
    python benchmarks/engine_report.py --preset standard --sparse-nodes 320
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.engine.backend import (  # noqa: E402
    FactorisationCache,
    default_backend,
    select_backend,
    use_factorisation_cache,
)
from repro.engine.simulator_batch import destination_link_loads_sequence  # noqa: E402
from repro.graphs.generators import random_connected_network  # noqa: E402
from repro.routing.softmin import softmin_routing  # noqa: E402
from repro.traffic.matrices import uniform_matrix  # noqa: E402
from repro.utils.seeding import rng_from_seed  # noqa: E402
from tests.helpers import (  # noqa: E402
    reference_link_loads,
    reference_lp_solve,
    reference_softmin_routing,
)


def best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` calls, so scheduler noise cannot inflate it."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _for_preset(table: dict, preset: str):
    try:
        return table[preset]
    except KeyError:
        raise ValueError(
            f"unknown bench preset {preset!r}; choose from {sorted(table)}"
        ) from None


# ---------------------------------------------------------------------------
# Batched engine vs the scalar loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineBenchmark:
    """One scalar-vs-batched measurement of the evaluation loop."""

    num_nodes: int
    num_edges: int
    num_matrices: int
    scalar_seconds: float
    batched_seconds: float

    @property
    def speedup(self) -> float:
        return self.scalar_seconds / max(self.batched_seconds, 1e-12)


#: Workload sizes per experiment-scale preset: ``quick`` is the tier-1
#: acceptance workload, ``standard``/``paper`` grow the graph and matrix
#: count to where batching pays off even more.
BENCH_WORKLOADS: dict[str, dict[str, int]] = {
    "quick": dict(num_nodes=20, extra_edges=30, num_matrices=4),
    "standard": dict(num_nodes=32, extra_edges=64, num_matrices=8),
    "paper": dict(num_nodes=48, extra_edges=120, num_matrices=16),
}


def bench_workload(preset: str) -> dict[str, int]:
    """The :func:`engine_speedup` sizing for a named preset."""
    return dict(_for_preset(BENCH_WORKLOADS, preset))


def engine_speedup(
    num_nodes: int = 20,
    extra_edges: int = 30,
    num_matrices: int = 4,
    gamma: float = 2.0,
    seed: int = 0,
    repeats: int = 3,
) -> EngineBenchmark:
    """Time the full softmin + simulation evaluation both ways.

    The workload is a random connected ``num_nodes``-node graph carrying
    ``num_matrices`` full (every-pair-positive) demand matrices.
    """
    network = random_connected_network(num_nodes, extra_edges, seed=seed)
    rng = rng_from_seed(seed)
    weights = rng.uniform(0.3, 3.0, network.num_edges)
    demands = [
        uniform_matrix(num_nodes, seed=seed + i, low=1.0, high=1000.0)
        for i in range(num_matrices)
    ]

    def scalar() -> np.ndarray:
        routing = reference_softmin_routing(network, weights, gamma=gamma)
        return np.stack([reference_link_loads(network, routing, dm) for dm in demands])

    def batched() -> np.ndarray:
        routing = softmin_routing(network, weights, gamma=gamma)
        return destination_link_loads_sequence(
            network, routing.destination_table(), np.stack(demands)
        )

    np.testing.assert_allclose(batched(), scalar(), atol=1e-8)
    return EngineBenchmark(
        num_nodes=num_nodes,
        num_edges=network.num_edges,
        num_matrices=num_matrices,
        scalar_seconds=best_of(scalar, repeats),
        batched_seconds=best_of(batched, repeats),
    )


def format_engine_bench(result: EngineBenchmark) -> str:
    """The engine microbenchmark: scalar vs batched evaluation timing."""
    return "\n".join(
        [
            "Batch evaluation engine - scalar reference vs vectorized",
            f"  workload: {result.num_matrices} full demand matrices on a "
            f"{result.num_nodes}-node / {result.num_edges}-edge graph",
            f"  scalar loops:   {result.scalar_seconds * 1e3:8.2f} ms",
            f"  batched engine: {result.batched_seconds * 1e3:8.2f} ms",
            f"  speedup: {result.speedup:.1f}x (acceptance floor: 5x)",
        ]
    )


# ---------------------------------------------------------------------------
# Dense vs sparse backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendBenchmark:
    """One dense-vs-sparse measurement of the destination-sequence solves."""

    num_nodes: int
    num_edges: int
    num_matrices: int
    dense_seconds: float
    sparse_seconds: float
    #: What the unbound ``"auto"`` backend picks here (the selection rule).
    auto_backend: str

    @property
    def speedup(self) -> float:
        """Sparse speedup over dense (< 1 means dense is faster)."""
        return self.dense_seconds / max(self.sparse_seconds, 1e-12)


#: Topology sizes per experiment-scale preset for the dense-vs-sparse
#: table.  Each preset spans the crossover: dense wins at the small end,
#: sparse at the large end.
SPARSE_BENCH_NODES: dict[str, tuple[int, ...]] = {
    "quick": (96, 192, 256),
    "standard": (96, 192, 320),
    "paper": (128, 256, 512),
}


def sparse_bench_nodes(preset: str) -> tuple[int, ...]:
    """The :func:`backend_comparison` sizes for a named preset."""
    return _for_preset(SPARSE_BENCH_NODES, preset)


def backend_comparison(
    num_nodes: int,
    extra_edges: int | None = None,
    num_matrices: int = 4,
    gamma: float = 2.0,
    seed: int = 0,
    repeats: int = 3,
) -> BackendBenchmark:
    """Time the dense and sparse backends on one fixed-routing workload.

    The workload is an ISP-like random sparse topology (average degree
    ≈ 2.7 by default: ``extra_edges = num_nodes // 3``) carrying
    ``num_matrices`` full demand matrices through one softmin routing.
    Each timed sparse call includes factorisation (a fresh private cache
    per call, so cache warmth does not flatter the sparse numbers).
    """
    if extra_edges is None:
        extra_edges = max(8, num_nodes // 3)
    network = random_connected_network(num_nodes, extra_edges, seed=seed)
    rng = rng_from_seed(seed)
    weights = rng.uniform(0.3, 3.0, network.num_edges)
    table = softmin_routing(network, weights, gamma=gamma).destination_table()
    demands = np.stack(
        [
            uniform_matrix(num_nodes, seed=seed + i, low=1.0, high=1000.0)
            for i in range(num_matrices)
        ]
    )

    def dense():
        with default_backend("dense"):
            return destination_link_loads_sequence(network, table, demands)

    def sparse():
        with use_factorisation_cache(FactorisationCache()), default_backend("sparse"):
            return destination_link_loads_sequence(network, table, demands)

    np.testing.assert_allclose(sparse(), dense(), atol=1e-8)
    return BackendBenchmark(
        num_nodes=num_nodes,
        num_edges=network.num_edges,
        num_matrices=num_matrices,
        dense_seconds=best_of(dense, repeats),
        sparse_seconds=best_of(sparse, repeats),
        auto_backend=select_backend(network),
    )


def format_backend_bench(results: list[BackendBenchmark]) -> str:
    """Dense-vs-sparse backend comparison as a per-size table.

    The ``auto`` column shows what the selection rule picks for each
    topology (sparse speedups < 1 at small sizes are expected — that is
    exactly why ``auto`` keeps dense there).
    """
    lines = [
        "Solver backend - dense stacked LAPACK vs sparse splu factorisation",
        "  (fixed-routing sequence solves; 'auto' = what backend selection picks)",
        "",
        "  nodes  edges  DMs   dense (ms)  sparse (ms)  sparse speedup  auto",
    ]
    for r in results:
        lines.append(
            f"  {r.num_nodes:>5}  {r.num_edges:>5}  {r.num_matrices:>3}"
            f"  {r.dense_seconds * 1e3:>10.2f}  {r.sparse_seconds * 1e3:>11.2f}"
            f"  {r.speedup:>13.2f}x  {r.auto_backend}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# LP phase: loop-assembled fresh solves vs the structure-reusing layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPBenchmark:
    """One legacy-vs-structured measurement of the LP warm-up phase."""

    topology_name: str
    num_nodes: int
    num_edges: int
    num_matrices: int
    legacy_seconds: float
    structured_seconds: float
    #: Whether the warm-started direct-HiGHS path was active (else both
    #: sides solve through ``linprog`` and only assembly differs).
    direct_solver: bool

    @property
    def speedup(self) -> float:
        return self.legacy_seconds / max(self.structured_seconds, 1e-12)


#: The ``zoo-large-sparse`` preset's demand recipe.
LP_BENCH_DEMANDS: dict[str, float] = {"density": 0.0005, "mean": 2000.0, "std": 400.0}

#: Distinct-matrix count per experiment-scale preset for the LP phase
#: comparison (the quick size matches the zoo-large-sparse warm-up volume).
LP_BENCH_MATRICES: dict[str, int] = {"quick": 4, "standard": 6, "paper": 8}


def lp_bench_matrices(preset: str) -> int:
    """The :func:`lp_phase_comparison` matrix count for a named preset."""
    return _for_preset(LP_BENCH_MATRICES, preset)


def lp_phase_comparison(
    topology_name: str = "cogent-like",
    num_matrices: int = 4,
    seed: int = 0,
    repeats: int = 1,
) -> LPBenchmark:
    """Time the LP warm-up phase both ways on a large sparse topology.

    The workload is the ``zoo-large-sparse`` preset's: the 197-node
    Cogent-scale topology carrying ``num_matrices`` distinct sparse demand
    matrices, with cold caches (every timed pass assembles and solves from
    scratch; the structured side gets a fresh
    :class:`~repro.flows.lp.LinearProgramCache` per pass).
    """
    from repro.flows.lp import (
        LinearProgramCache,
        direct_solver_available,
        solve_optimal_max_utilisation,
        use_lp_cache,
    )
    from repro.graphs.zoo import topology
    from repro.traffic.matrices import sparse_matrix

    network = topology(topology_name)
    demands = [
        sparse_matrix(network.num_nodes, seed=seed + i, **LP_BENCH_DEMANDS)
        for i in range(num_matrices)
    ]

    def legacy() -> list:
        return [reference_lp_solve(network, dm).max_utilisation for dm in demands]

    def structured() -> list:
        with use_lp_cache(LinearProgramCache()):
            return [solve_optimal_max_utilisation(network, dm).max_utilisation for dm in demands]

    np.testing.assert_allclose(structured(), legacy(), atol=1e-8)
    return LPBenchmark(
        topology_name=topology_name,
        num_nodes=network.num_nodes,
        num_edges=network.num_edges,
        num_matrices=num_matrices,
        legacy_seconds=best_of(legacy, repeats),
        structured_seconds=best_of(structured, repeats),
        direct_solver=direct_solver_available(),
    )


def format_lp_bench(result: LPBenchmark) -> str:
    """The LP-phase benchmark: loop-assembled fresh solves vs structure reuse."""
    solver = "direct HiGHS (warm-started)" if result.direct_solver else "linprog fallback"
    return "\n".join(
        [
            "LP reward denominator - loop-assembled fresh solves vs structure reuse",
            f"  workload: {result.num_matrices} distinct sparse demand matrices on "
            f"{result.topology_name} ({result.num_nodes} nodes / {result.num_edges} edges)",
            f"  solver path: {solver}",
            f"  legacy pipeline:     {result.legacy_seconds * 1e3:8.1f} ms",
            f"  structure-reusing:   {result.structured_seconds * 1e3:8.1f} ms",
            f"  speedup: {result.speedup:.1f}x (acceptance floor: 5x)",
        ]
    )


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engine_report.py",
        description="Time the batch evaluation engine against the scalar "
        "reference, the sparse backend against the dense one, and the LP "
        "layer against loop assembly.",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=sorted(BENCH_WORKLOADS),
        help="workload size (see BENCH_WORKLOADS / SPARSE_BENCH_NODES / LP_BENCH_MATRICES)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sparse-nodes",
        type=int,
        default=None,
        metavar="N",
        help="compare dense vs sparse at one topology size instead of the "
        "preset's size ladder (SPARSE_BENCH_NODES)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.sparse_nodes is not None and args.sparse_nodes < 16:
        print(f"error: --sparse-nodes must be >= 16, got {args.sparse_nodes}", file=sys.stderr)
        return 2
    print(format_engine_bench(engine_speedup(seed=args.seed, **bench_workload(args.preset))))
    print()
    sizes = (
        (args.sparse_nodes,) if args.sparse_nodes is not None else sparse_bench_nodes(args.preset)
    )
    print(format_backend_bench([backend_comparison(num_nodes=n, seed=args.seed) for n in sizes]))
    print()
    print(
        format_lp_bench(
            lp_phase_comparison(num_matrices=lp_bench_matrices(args.preset), seed=args.seed)
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
