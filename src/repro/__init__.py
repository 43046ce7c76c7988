"""GDDR: GNN-based Data-Driven Routing — full reproduction.

Reproduces Hope & Yoneki, *GDDR: GNN-based Data-Driven Routing*, ICDCS
2021 (arXiv:2104.09919): deep-RL intradomain traffic engineering where a
graph-neural-network policy maps demand history to softmin edge weights,
generalising across network topologies.

Subpackage map (bottom-up):

==================  =======================================================
``repro.tensor``    reverse-mode autodiff engine (TensorFlow substitute)
``repro.gnn``       Battaglia-style graph-network blocks (graph_nets subst.)
``repro.rl``        Gym-style env API + PPO (stable-baselines substitute)
``repro.graphs``    capacitated topologies: zoo, generators, modifications
``repro.traffic``   bimodal/gravity demand matrices, cyclical sequences
``repro.flows``     optimal-routing LP oracle + splitting-ratio simulator
``repro.routing``   softmin translation, DAG pruning, classical baselines
``repro.engine``    vectorized batch evaluation engine (all destinations,
                    many DMs/seeds/topologies per call)
``repro.envs``      the GDDR routing environments (one-shot / iterative)
``repro.policies``  MLP baseline, one-shot GNN, iterative GNN policies
``repro.api``       declarative scenario layer: registry-backed
                    ScenarioSpec + run(spec), JSON in/out
``repro.experiments`` scale presets, CLI runner, text reports
==================  =======================================================
"""

__version__ = "1.0.0"

from repro.graphs import Network, abilene, nsfnet
from repro.traffic import cyclical_sequence, train_test_sequences
from repro.flows import solve_optimal_max_utilisation, max_link_utilisation
from repro.routing import softmin_routing, shortest_path_routing, ecmp_routing
from repro.engine.backend import FactorisationCache, default_backend, select_backend
from repro.engine.evaluate import batch_evaluate, batch_evaluate_routing
from repro.envs import RoutingEnv, IterativeRoutingEnv, MultiGraphRoutingEnv
from repro.policies import MLPPolicy, GNNPolicy, IterativeGNNPolicy
from repro.rl import PPO, PPOConfig
from repro import api
from repro.api import ScenarioSpec, get_scenario
from repro.api import run as run_scenario

__all__ = [
    "api",
    "ScenarioSpec",
    "get_scenario",
    "run_scenario",
    "__version__",
    "Network",
    "abilene",
    "nsfnet",
    "cyclical_sequence",
    "train_test_sequences",
    "solve_optimal_max_utilisation",
    "max_link_utilisation",
    "softmin_routing",
    "shortest_path_routing",
    "ecmp_routing",
    "batch_evaluate",
    "batch_evaluate_routing",
    "FactorisationCache",
    "default_backend",
    "select_backend",
    "RoutingEnv",
    "IterativeRoutingEnv",
    "MultiGraphRoutingEnv",
    "MLPPolicy",
    "GNNPolicy",
    "IterativeGNNPolicy",
    "PPO",
    "PPOConfig",
]
