"""Metric names, the per-layer breakdown, and what each layer should move.

``BENCHMARK.json`` at the repository root declares every metric with its
unit and direction (and, end to end, its regression bound); the benchmark
reads units from it, so a metric it prints but does not declare fails.

Per-layer metrics are per *operation*: one ``api.run()`` on an offline
workload, one served request on a serve workload.  Times are self times
(a span's duration minus its traced children), so they add up to the
traced operation.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import json

from common import ROOT

#: per-layer time metric -> traced layer (self seconds per operation).
LAYER_TIMES = {
    "policies.forward_s": "policies.forward",
    "policies.evaluate_s": "policies.evaluate",
    "gnn.batch_graphs_s": "gnn.batch_graphs",
    "tensor.backward_s": "tensor.backward",
    "rl.collect_rollout_s": "rl.collect_rollout",
    "rl.update_s": "rl.update",
    "envs.step_s": "envs.step",
    "engine.evaluate_s": "engine.evaluate",
    "engine.warm_lp_s": "engine.warm_lp",
    "engine.balance_solve_s": "engine.balance_solve",
    "routing.strategy_build_s": "routing.strategy_build",
    "routing.softmin_s": "routing.softmin",
    "flows.simulate_s": "flows.simulate",
    "flows.lp_solve_s": "flows.lp_solve",
    "graphs.build_s": "graphs.build",
    "graphs.variant_s": "graphs.variant",
    "traffic.generate_s": "traffic.generate",
    "service.evaluate_batch_s": "service.evaluate_batch",
}

#: per-layer call count -> traced layer (outermost calls per operation).
LAYER_COUNTS = {
    "policies.forward_calls": "policies.forward",
    "gnn.batch_graphs_calls": "gnn.batch_graphs",
    "routing.strategy_builds": "routing.strategy_build",
    "routing.softmin_calls": "routing.softmin",
    "flows.simulate_calls": "flows.simulate",
    "flows.lp_solves": "flows.lp_solve",
    "engine.balance_solves": "engine.balance_solve",
    "graphs.variants": "graphs.variant",
}

#: cache hit-ratio metric -> cache kind (see ``tracer.CACHE_CLASSES``).
CACHE_RATIOS = {
    "flows.optimum_hit_ratio": "optimum",
    "flows.structure_hit_ratio": "structure",
    "engine.factorisation_hit_ratio": "factorisation",
}

#: Measured by the serve workloads only; offline workloads report 0.
SERVICE_METRICS = (
    "service.tick_ms",
    "service.outside_tick_ms",
    "service.queue_wait_ms",
    "api.serialise_ms",
    "service.coalesced_mean",
    "service.shed",
    "bench.gen_lag_p99_ms",
)

OFFLINE = ("fig6", "zoo-large-sparse-linkflap")
SERVE = ("serve-fig6-replay", "serve-fig6-fresh")
ALL = OFFLINE + SERVE

#: (layer metrics, end-to-end metrics they should move, workloads where they
#: should, workloads where the prediction is no change).  Written down before
#: measuring, as the basis for judging a change to one layer.
PREDICTIONS = (
    (
        ("policies.forward_s", "policies.forward_calls", "policies.evaluate_s",
         "gnn.batch_graphs_s", "gnn.batch_graphs_calls", "tensor.backward_s"),
        ("p50_ms", "throughput_per_s"),
        ("fig6", "serve-fig6-replay"),
        ("zoo-large-sparse-linkflap",),
    ),
    (
        ("rl.collect_rollout_s", "rl.update_s", "rl.env_steps_per_s", "envs.step_s"),
        ("p50_ms", "setup_s"),
        ("fig6",) + SERVE,  # serve trains at start-up: setup_s
        ("zoo-large-sparse-linkflap",),
    ),
    (("engine.evaluate_s",), ("p50_ms",), OFFLINE, SERVE),
    (("engine.warm_lp_s",), ("p50_ms", "setup_s"), ("fig6",) + SERVE, ()),
    (
        ("routing.strategy_build_s", "routing.strategy_builds", "graphs.build_s",
         "graphs.variant_s", "graphs.variants", "traffic.generate_s",
         "engine.balance_solve_s", "engine.balance_solves", "engine.factorisation_hit_ratio"),
        ("p50_ms",),
        ("zoo-large-sparse-linkflap",),
        ("fig6",),
    ),
    (
        ("routing.softmin_s", "routing.softmin_calls", "flows.simulate_s",
         "flows.simulate_calls"),
        ("p50_ms",),
        ("fig6",) + SERVE,
        ("zoo-large-sparse-linkflap",),
    ),
    (
        ("flows.lp_solve_s", "flows.lp_solves", "flows.optimum_hit_ratio",
         "flows.structure_hit_ratio"),
        ("p50_ms", "throughput_per_s"),
        ("serve-fig6-fresh",),
        ("serve-fig6-replay", "fig6"),
    ),
    (
        ("service.evaluate_batch_s", "service.tick_ms", "service.outside_tick_ms",
         "service.queue_wait_ms", "api.serialise_ms", "service.coalesced_mean",
         "service.shed"),
        ("p50_ms", "throughput_per_s"),
        SERVE,
        OFFLINE,
    ),
    (
        # Run validity: large values make every end-to-end number suspect.
        ("trace.coverage", "trace.overhead", "bench.gen_lag_p99_ms"),
        ("setup_s", "p50_ms", "throughput_per_s"),
        ALL,
        (),
    ),
)


def declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    """``metric name -> unit`` for ``"end_to_end"`` or ``"per_layer"``."""
    return {entry["name"]: entry["unit"] for entry in declaration()[section]}


def layer_metrics(table: dict, operations: int, caches: dict) -> dict:
    """Span-derived per-layer metrics, per operation.

    ``table`` is a :func:`tracer.layer_table` summed over ``operations``;
    ``caches`` maps a cache kind to ``(hits, misses)``.
    """

    def row(layer):
        return table.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    out = {name: row(layer)["self_s"] / operations for name, layer in LAYER_TIMES.items()}
    out.update(
        {name: row(layer)["calls"] / operations for name, layer in LAYER_COUNTS.items()}
    )
    learn_s = row("rl.learn")["total_s"]
    out["rl.env_steps_per_s"] = row("envs.step")["calls"] / learn_s if learn_s else 0.0
    for name, kind in CACHE_RATIOS.items():
        hits, misses = caches.get(kind, (0, 0))
        out[name] = hits / (hits + misses) if hits + misses else 0.0
    return out
