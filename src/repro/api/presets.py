"""Bundled scenario presets and the scenario registry.

The paper's four evaluation pipelines (Figures 6–8 and the §VIII-D
throughput check) are expressed here as :class:`ScenarioSpec` presets —
pure data driven by :func:`repro.api.run` — next to scenarios that the old
hardwired runners could not express at all: a zoo topology under bursty
gravity traffic, a link-failure sweep, and an oblivious-vs-learned
strategy comparison grid.

``SCENARIOS`` maps scenario names to zero-argument spec factories;
:func:`get_scenario` materialises one, and :func:`register_scenario` adds
new entries (a spec object or a factory).  ``runner run <name>`` and
``runner list scenarios`` read this registry.

The figure ``*_spec`` builders take ``(preset, seed, scale)`` so callers
can pin a seed or an exact :class:`ExperimentScale`; the registry entries
are the same builders at their defaults.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Optional, Union

from repro.api.registry import Registry
from repro.api.spec import (
    DynamicsSpec,
    EvaluationSpec,
    PolicySpec,
    RoutingSpec,
    ScenarioSpec,
    StrategySpec,
    TopologySpec,
    TrafficSpec,
    TrainingSpec,
)
from repro.experiments.config import ExperimentScale, get_preset

SCENARIOS = Registry("scenario")


def register_scenario(spec_or_factory: Union[ScenarioSpec, Callable[[], ScenarioSpec]]):
    """Add a scenario to the registry (a built spec or a zero-arg factory)."""
    if isinstance(spec_or_factory, ScenarioSpec):
        spec = spec_or_factory
        SCENARIOS.register(spec.name, lambda: spec, description=spec.description)
        return spec
    factory = spec_or_factory
    built = factory()
    SCENARIOS.register(built.name, factory, description=built.description)
    return factory


def get_scenario(name: str) -> ScenarioSpec:
    """Materialise a registered scenario spec by name."""
    return SCENARIOS.get(name)()


def scenario_names() -> list[str]:
    return SCENARIOS.names()


def _training(preset: str, scale: Optional[ExperimentScale]) -> TrainingSpec:
    """A TrainingSpec pinning ``scale`` exactly (when given) or just the preset."""
    if scale is None:
        return TrainingSpec(preset=preset)
    overrides = {
        k: list(v) if isinstance(v, tuple) else v for k, v in asdict(scale).items()
    }
    return TrainingSpec(preset=preset, overrides=overrides)


# ---------------------------------------------------------------------------
# Figure presets (the paper's evaluation, now declarative)
# ---------------------------------------------------------------------------


def fig6_spec(
    preset: str = "quick", seed: int = 0, scale: Optional[ExperimentScale] = None
) -> ScenarioSpec:
    """Fig. 6: MLP vs GNN vs iterative GNN vs shortest path on Abilene."""
    return ScenarioSpec(
        name="fig6",
        description="Fig. 6 — learning to route on a fixed graph (Abilene)",
        topology=TopologySpec("abilene"),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(
                PolicySpec("mlp", ppo="mlp"),
                PolicySpec("gnn"),
                PolicySpec("gnn_iterative"),
            ),
            strategies=(StrategySpec("shortest_path"),),
        ),
        training=_training(preset, scale),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(seed,)),
    )


def fig7_spec(
    preset: str = "quick", seed: int = 0, scale: Optional[ExperimentScale] = None
) -> ScenarioSpec:
    """Fig. 7: learning curves for the MLP and GNN agents on the Fig. 6 setup."""
    return ScenarioSpec(
        name="fig7",
        description="Fig. 7 — learning curves for the MLP and GNN agents",
        topology=TopologySpec("abilene"),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(PolicySpec("mlp", ppo="mlp"), PolicySpec("gnn")),
        ),
        training=_training(preset, scale),
        evaluation=EvaluationSpec(metrics=("learning_curve",), seeds=(seed,)),
    )


def fig8_modifications_spec(
    preset: str = "quick", seed: int = 0, scale: Optional[ExperimentScale] = None
) -> ScenarioSpec:
    """Fig. 8 setting 1: train on Abilene ± small modifications, test on fresh ones.

    Seed choreography matches the pre-API runner: the modification pool
    derives from the user seed while training/evaluation run at
    ``seed + 1000``.
    """
    graphs = scale or get_preset(preset)
    return ScenarioSpec(
        name="fig8-modifications",
        description="Fig. 8 — generalisation to modified Abilene graphs",
        topology=TopologySpec(
            "modification_pool",
            {
                "base": "abilene",
                "num_train": graphs.num_train_graphs,
                "num_test": graphs.num_test_graphs,
                "seed": seed,
            },
        ),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"), PolicySpec("gnn_iterative")),
            strategies=(StrategySpec("shortest_path"),),
        ),
        training=_training(preset, scale),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(seed + 1000,)),
    )


def fig8_different_spec(
    preset: str = "quick", seed: int = 0, scale: Optional[ExperimentScale] = None
) -> ScenarioSpec:
    """Fig. 8 setting 2: disjoint pools of random graphs, 0.5x–2x Abilene size."""
    graphs = scale or get_preset(preset)
    return ScenarioSpec(
        name="fig8-different",
        description="Fig. 8 — generalisation to entirely different random graphs",
        topology=TopologySpec(
            "different_graphs",
            {
                "base_nodes": 11,
                "num_train": graphs.num_train_graphs,
                "num_test": graphs.num_test_graphs,
                "seed": seed + 2000,
            },
        ),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"), PolicySpec("gnn_iterative")),
            strategies=(StrategySpec("shortest_path"),),
        ),
        training=_training(preset, scale),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(seed + 3000,)),
    )


def throughput_spec(
    preset: str = "quick", seed: int = 0, scale: Optional[ExperimentScale] = None
) -> ScenarioSpec:
    """§VIII-D: training-throughput parity between the MLP and GNN agents."""
    return ScenarioSpec(
        name="throughput",
        description="§VIII-D — training throughput parity (MLP vs GNN, fps)",
        topology=TopologySpec("abilene"),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            # The parity check times both agents under identical PPO
            # settings, so the MLP uses the default profile here.
            policies=(PolicySpec("mlp", ppo="default"), PolicySpec("gnn")),
        ),
        training=_training(preset, scale),
        evaluation=EvaluationSpec(metrics=("throughput",), seeds=(seed,)),
    )


# ---------------------------------------------------------------------------
# New scenarios — only expressible through the declarative API
# ---------------------------------------------------------------------------


def zoo_gravity_burst_spec() -> ScenarioSpec:
    """A GEANT-scale zoo topology under concentrated (bursty) gravity traffic."""
    return ScenarioSpec(
        name="zoo-gravity-burst",
        description="GEANT-scale zoo topology x bursty gravity traffic: GNN vs classical",
        topology=TopologySpec("geant-like"),
        traffic=TrafficSpec(
            "gravity", params={"total_demand": 120_000.0, "concentration": 2.5}
        ),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"),),
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(0,)),
    )


def link_failure_sweep_spec() -> ScenarioSpec:
    """Train on intact Abilene; evaluate on single-link-failure variants."""
    return ScenarioSpec(
        name="link-failure-sweep",
        description="train on intact Abilene, evaluate across single-link failures",
        topology=TopologySpec(
            "link_failure_sweep", {"base": "abilene", "num_failures": 3, "seed": 0}
        ),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"),),
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(0,)),
    )


def strategy_grid_spec() -> ScenarioSpec:
    """Learned policies vs every fixed baseline on NSFNET, over two seeds."""
    return ScenarioSpec(
        name="strategy-grid",
        description="oblivious-vs-learned comparison grid on NSFNET (two seeds)",
        topology=TopologySpec("nsfnet"),
        traffic=TrafficSpec("bimodal"),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"), PolicySpec("gnn_iterative")),
            strategies=(
                StrategySpec("shortest_path"),
                StrategySpec("ecmp"),
                StrategySpec("oblivious"),
                StrategySpec("capacity_proportional"),
                StrategySpec("inverse_weight"),
            ),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(0, 1)),
    )


# ---------------------------------------------------------------------------
# Large-topology scenarios — the sparse solver backend's home turf
# ---------------------------------------------------------------------------
#
# Demand on these graphs is deliberately very sparse (a handful of active
# node pairs): that matches how carrier-scale traffic matrices actually
# look, and it keeps the LP reward denominator tractable — each distinct
# DM's optimum is one solve over the active destinations only, and the
# structure-reusing LP layer (repro.flows.lp) makes those solves
# warm-started RHS-only re-solves where supports repeat.  These presets
# evaluate fixed strategies only, so they run no LP warm-up pass: each
# optimum is solved once, when evaluation first scores its DM.


def zoo_large_sparse_spec() -> ScenarioSpec:
    """Classical baselines on a Cogent-scale 197-node sparse topology."""
    return ScenarioSpec(
        name="zoo-large-sparse",
        description="197-node Cogent-scale zoo topology, sparse demand, "
        "classical baselines on the sparse solver backend",
        topology=TopologySpec("cogent-like"),
        traffic=TrafficSpec(
            "sparse",
            params={"density": 0.0005, "mean": 2000.0, "std": 400.0},
            length=8,
            cycle_length=2,
            num_train=1,
            num_test=1,
        ),
        routing=RoutingSpec(
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(
            metrics=("utilisation_ratio",), seeds=(0,), backend="sparse"
        ),
    )


def random_sparse_240_spec() -> ScenarioSpec:
    """A 240-node random-sparse preset that exercises the ``auto`` rule."""
    return ScenarioSpec(
        name="random-sparse-240",
        description="240-node random sparse topology; backend 'auto' picks "
        "the sparse solver by the node-count/density rule",
        topology=TopologySpec(
            "random", {"num_nodes": 240, "extra_edges": 80, "seed": 7}
        ),
        traffic=TrafficSpec(
            "sparse",
            params={"density": 0.0004, "mean": 2500.0, "std": 500.0},
            length=8,
            cycle_length=2,
            num_train=1,
            num_test=1,
        ),
        routing=RoutingSpec(
            strategies=(
                StrategySpec("shortest_path"),
                StrategySpec("inverse_weight"),
            ),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(
            metrics=("utilisation_ratio",), seeds=(0,), backend="auto"
        ),
    )


def zoo_kdl_sparse_spec() -> ScenarioSpec:
    """The largest embedded topology (256-node Kdl-style carrier graph)."""
    return ScenarioSpec(
        name="zoo-kdl-sparse",
        description="256-node Kdl-style carrier backbone, very sparse demand, "
        "shortest path vs ECMP on the sparse backend",
        topology=TopologySpec("kdl-like"),
        traffic=TrafficSpec(
            "sparse",
            params={"density": 0.0003, "mean": 3000.0, "std": 600.0},
            length=6,
            cycle_length=2,
            num_train=1,
            num_test=1,
        ),
        routing=RoutingSpec(
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(
            metrics=("utilisation_ratio",), seeds=(0,), backend="sparse"
        ),
    )


# ---------------------------------------------------------------------------
# Dynamic scenarios — the time-varying dynamics axis
# ---------------------------------------------------------------------------
#
# These score every strategy and trained policy against the *sequence* of
# perturbed networks a dynamics model produces: links fail mid-sequence and
# recover, demand spikes into hotspots.  The perturbation schedule is part
# of the spec (dynamics models seed from their own params), so runs are
# reproducible without touching the training choreography — training always
# sees the intact base network.


def link_failure_flap_spec() -> ScenarioSpec:
    """Mid-sequence link failure and recovery on Abilene (dynamics axis)."""
    return ScenarioSpec(
        name="link-failure-flap",
        description="Abilene with one link failing mid-sequence and recovering: "
        "GNN vs classical across the outage window",
        topology=TopologySpec("abilene"),
        traffic=TrafficSpec("bimodal"),
        dynamics=DynamicsSpec("link_flap", {"num_failures": 1, "seed": 0}),
        routing=RoutingSpec(
            policies=(PolicySpec("gnn"),),
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(0,)),
    )


def zoo_large_sparse_linkflap_spec() -> ScenarioSpec:
    """zoo-large-sparse under a two-link mid-sequence flap (sparse backend)."""
    return ScenarioSpec(
        name="zoo-large-sparse-linkflap",
        description="197-node Cogent-scale zoo topology, sparse demand, "
        "two links flapping mid-sequence on the sparse solver backend",
        topology=TopologySpec("cogent-like"),
        traffic=TrafficSpec(
            "sparse",
            params={"density": 0.0005, "mean": 2000.0, "std": 400.0},
            length=8,
            cycle_length=2,
            num_train=1,
            num_test=1,
        ),
        # The quick preset scores steps 3..7 of the length-8 sequences, so
        # the [4, 6) outage window sits squarely inside the scored range.
        dynamics=DynamicsSpec(
            "link_flap",
            {"num_failures": 2, "fail_step": 4, "recover_step": 6, "seed": 0},
        ),
        routing=RoutingSpec(
            strategies=(StrategySpec("shortest_path"), StrategySpec("ecmp")),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(
            metrics=("utilisation_ratio",), seeds=(0,), backend="sparse"
        ),
    )


def flash_crowd_nsfnet_spec() -> ScenarioSpec:
    """NSFNET under a flash-crowd demand burst into two hotspot nodes."""
    return ScenarioSpec(
        name="flash-crowd-nsfnet",
        description="NSFNET with demand into two hotspot nodes spiking 4x for "
        "a mid-sequence burst window",
        topology=TopologySpec("nsfnet"),
        traffic=TrafficSpec("bimodal"),
        dynamics=DynamicsSpec("flash_crowd", {"hotspots": 2, "factor": 4.0, "seed": 0}),
        routing=RoutingSpec(
            strategies=(
                StrategySpec("shortest_path"),
                StrategySpec("ecmp"),
                StrategySpec("capacity_proportional"),
            ),
        ),
        training=TrainingSpec("quick"),
        evaluation=EvaluationSpec(metrics=("utilisation_ratio",), seeds=(0,)),
    )


register_scenario(fig6_spec)
register_scenario(fig7_spec)
register_scenario(fig8_modifications_spec)
register_scenario(fig8_different_spec)
register_scenario(throughput_spec)
register_scenario(zoo_gravity_burst_spec)
register_scenario(link_failure_sweep_spec)
register_scenario(strategy_grid_spec)
register_scenario(zoo_large_sparse_spec)
register_scenario(random_sparse_240_spec)
register_scenario(zoo_kdl_sparse_spec)
register_scenario(link_failure_flap_spec)
register_scenario(zoo_large_sparse_linkflap_spec)
register_scenario(flash_crowd_nsfnet_spec)


__all__ = [
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "fig6_spec",
    "fig7_spec",
    "fig8_modifications_spec",
    "fig8_different_spec",
    "throughput_spec",
    "zoo_gravity_burst_spec",
    "link_failure_sweep_spec",
    "strategy_grid_spec",
    "zoo_large_sparse_spec",
    "random_sparse_240_spec",
    "zoo_kdl_sparse_spec",
    "link_failure_flap_spec",
    "zoo_large_sparse_linkflap_spec",
    "flash_crowd_nsfnet_spec",
]
