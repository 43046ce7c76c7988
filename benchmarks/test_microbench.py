"""Microbenchmarks for the per-step costs of the GDDR loop.

The paper notes training is CPU-bound on the LP step; these benches break
one environment step into its parts so the claim can be checked on this
implementation: LP solve, softmin translation, flow simulation, GNN
forward pass, and a full PPO update — plus the graph kernels behind the
classical baselines and the link-failure operators.
"""

import numpy as np
import pytest

from repro.envs.observation import GraphObservation
from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import link_loads
from repro.gnn import batch_graphs
from repro.graphs import abilene, nsfnet
from repro.policies import GNNPolicy, MLPPolicy
from repro.routing.softmin import softmin_routing
from repro.traffic import bimodal_matrix, sparse_matrix
from tests.helpers import reference_link_loads, reference_softmin_routing


@pytest.fixture(scope="module")
def setup():
    net = abilene()
    dm = bimodal_matrix(net.num_nodes, seed=0)
    weights = np.random.default_rng(0).uniform(0.3, 3.0, net.num_edges)
    return net, dm, weights


@pytest.mark.benchmark(group="micro")
def test_lp_solve_abilene(benchmark, setup):
    net, dm, _ = setup
    result = benchmark(solve_optimal_max_utilisation, net, dm)
    assert result.max_utilisation > 0.0


@pytest.mark.benchmark(group="micro")
def test_lp_solve_nsfnet(benchmark):
    net = nsfnet()
    dm = bimodal_matrix(net.num_nodes, seed=1)
    result = benchmark(solve_optimal_max_utilisation, net, dm)
    assert result.max_utilisation > 0.0


@pytest.mark.benchmark(group="micro")
def test_softmin_translation(benchmark, setup):
    net, _, weights = setup
    routing = benchmark(softmin_routing, net, weights, 2.0)
    assert routing is not None


@pytest.mark.benchmark(group="micro")
def test_flow_simulation(benchmark, setup):
    net, dm, weights = setup
    routing = softmin_routing(net, weights, gamma=2.0)
    loads = benchmark(link_loads, net, routing, dm)
    assert np.all(np.isfinite(loads))


@pytest.mark.benchmark(group="micro")
def test_gnn_policy_forward(benchmark, setup):
    net, dm, _ = setup
    policy = GNNPolicy(memory_length=5, latent=16, hidden=32, num_processing_steps=3, seed=0)
    history = np.stack([dm] * 5) / dm.mean()
    obs = GraphObservation(net, history)
    rng = np.random.default_rng(0)
    action, _, _ = benchmark(policy.act, obs, rng)
    assert action.shape == (net.num_edges,)


@pytest.mark.benchmark(group="micro")
def test_mlp_policy_forward(benchmark, setup):
    net, dm, _ = setup
    policy = MLPPolicy(net.num_nodes, net.num_edges, memory_length=5, seed=0)
    history = np.stack([dm] * 5) / dm.mean()
    obs = GraphObservation(net, history)
    rng = np.random.default_rng(0)
    action, _, _ = benchmark(policy.act, obs, rng)
    assert action.shape == (net.num_edges,)


@pytest.mark.benchmark(group="micro")
def test_gnn_batched_evaluate(benchmark, setup):
    """One training minibatch: 32 observations through one GraphsTuple."""
    net, dm, _ = setup
    policy = GNNPolicy(memory_length=5, latent=16, hidden=32, num_processing_steps=3, seed=0)
    history = np.stack([dm] * 5) / dm.mean()
    observations = [GraphObservation(net, history) for _ in range(32)]
    rng = np.random.default_rng(0)
    actions = [rng.normal(size=net.num_edges) for _ in range(32)]

    def evaluate():
        log_probs, values, entropy = policy.evaluate(observations, actions)
        return log_probs

    log_probs = benchmark(evaluate)
    assert log_probs.shape == (32,)


@pytest.mark.benchmark(group="micro")
def test_graph_batching(benchmark, setup):
    net, dm, _ = setup
    feats = [dm.sum(axis=1)[:, None] for _ in range(64)]

    def build():
        return batch_graphs([net] * 64, node_features=feats)

    graph = benchmark(build)
    assert graph.num_graphs == 64


# ---------------------------------------------------------------------------
# Batch evaluation engine: scalar reference vs vectorized implementation.
# ---------------------------------------------------------------------------

def _engine_workload(num_nodes=20, extra_edges=30, seed=0):
    from repro.graphs.generators import random_connected_network
    from repro.traffic import uniform_matrix

    net = random_connected_network(num_nodes, extra_edges, seed=seed)
    weights = np.random.default_rng(seed).uniform(0.3, 3.0, net.num_edges)
    dm = uniform_matrix(num_nodes, seed=seed, low=1.0, high=1000.0)
    return net, weights, dm


@pytest.mark.benchmark(group="engine")
def test_scalar_reference_evaluation(benchmark):
    """Per-destination Python loops: softmin translation + simulation."""
    net, weights, dm = _engine_workload()

    def scalar():
        routing = reference_softmin_routing(net, weights, gamma=2.0)
        return reference_link_loads(net, routing, dm)

    loads = benchmark(scalar)
    assert np.all(np.isfinite(loads))


@pytest.mark.benchmark(group="engine")
def test_batched_engine_evaluation(benchmark):
    """The vectorized engine on the identical 20-node full-mesh workload."""
    net, weights, dm = _engine_workload()

    def batched():
        routing = softmin_routing(net, weights, gamma=2.0)
        return link_loads(net, routing, dm)

    loads = benchmark(batched)
    assert np.all(np.isfinite(loads))


def test_engine_speedup_meets_target():
    """Acceptance check: ≥ 5x on a 20-node graph with full demand matrices.

    Runs in tier-1 (it takes well under a second) so the engine can never
    silently regress to scalar-level performance.
    """
    from benchmarks.engine_report import engine_speedup

    # 5 best-of repeats: the margin is ~3x the floor, so only a sustained
    # scheduler stall across all repeats could flake this on a CI runner.
    result = engine_speedup(num_nodes=20, extra_edges=30, num_matrices=4, seed=0, repeats=5)
    assert result.speedup >= 5.0, (
        f"batch engine only {result.speedup:.1f}x faster than the scalar "
        f"reference ({result.scalar_seconds * 1e3:.1f} ms vs "
        f"{result.batched_seconds * 1e3:.1f} ms)"
    )


# ---------------------------------------------------------------------------
# LP layer: vectorized constraint assembly and structure-cached re-solves.
# ---------------------------------------------------------------------------


def _lp_workload(seed=0):
    """The zoo-large-sparse LP workload: cogent-like + one sparse DM."""
    from repro.graphs.zoo import topology

    net = topology("cogent-like")
    dm = sparse_matrix(net.num_nodes, seed=seed, density=0.0005, mean=2000.0, std=400.0)
    return net, dm


@pytest.mark.benchmark(group="lp")
def test_lp_assembly(benchmark):
    """Vectorized COO assembly of the 197-node constraint structure."""
    from repro.flows.lp import LinearProgramStructure, demand_destinations

    net, dm = _lp_workload()
    destinations = demand_destinations(dm)
    structure = benchmark(LinearProgramStructure, net, destinations)
    assert structure.num_commodities == len(destinations)


@pytest.mark.benchmark(group="lp")
def test_lp_resolve(benchmark):
    """RHS-only re-solve against a prewarmed structure (same support)."""
    from repro.flows.lp import LinearProgramCache, solve_optimal_max_utilisation

    net, dm = _lp_workload()
    cache = LinearProgramCache()
    solve_optimal_max_utilisation(net, dm, lp_cache=cache)  # warm the structure
    rescaled = np.where(
        dm > 0.0, dm * np.random.default_rng(1).uniform(0.5, 2.0, dm.shape), 0.0
    )
    result = benchmark(solve_optimal_max_utilisation, net, rescaled, lp_cache=cache)
    assert result.max_utilisation > 0.0


# ---------------------------------------------------------------------------
# Solver backends: dense stacked LAPACK vs sparse splu on large topologies.
# ---------------------------------------------------------------------------

def _backend_workload(num_nodes=224, seed=0):
    from repro.graphs.generators import random_connected_network
    from repro.routing.softmin import softmin_routing

    net = random_connected_network(num_nodes, num_nodes // 3, seed=seed)
    weights = np.random.default_rng(seed).uniform(0.3, 3.0, net.num_edges)
    table = softmin_routing(net, weights, gamma=2.0).destination_table()
    demands = np.stack(
        [bimodal_matrix(num_nodes, seed=seed + i) for i in range(2)]
    )
    return net, table, demands


@pytest.mark.benchmark(group="backend")
def test_dense_backend_large_topology(benchmark):
    """The dense stacked solve on a 224-node sparse carrier-scale graph."""
    from repro.engine import destination_link_loads_sequence

    net, table, demands = _backend_workload()
    loads = benchmark(
        destination_link_loads_sequence, net, table, demands, "dense"
    )
    assert np.all(np.isfinite(loads))


@pytest.mark.benchmark(group="backend")
def test_sparse_backend_large_topology(benchmark):
    """The sparse splu solve on the identical 224-node workload."""
    from repro.engine import FactorisationCache, destination_link_loads_sequence

    net, table, demands = _backend_workload()

    def sparse():
        # A fresh cache per round: the measurement includes factorisation.
        return destination_link_loads_sequence(
            net, table, demands, "sparse", FactorisationCache()
        )

    loads = benchmark(sparse)
    assert np.all(np.isfinite(loads))


def test_lp_phase_speedup_meets_target():
    """Acceptance check: ≥ 5x on the zoo-large-sparse LP warm-up, cold caches.

    The structure-reusing LP layer (vectorized COO assembly + warm-started
    direct-HiGHS solves) against the legacy loop-assembly + fresh-linprog
    pipeline, on the ``zoo-large-sparse`` workload: 4 distinct sparse demand
    matrices on the 197-node Cogent-scale topology.  Measured margin is
    ~10-13x, so only a real regression can breach the 5x floor.  Optima are
    pinned equal to 1e-8 inside the comparison before any timing.
    """
    from benchmarks.engine_report import lp_phase_comparison
    from repro.flows.lp import direct_solver_available

    if not direct_solver_available():
        pytest.skip("scipy's vendored HiGHS bindings unavailable; no warm-started solves")
    result = lp_phase_comparison(num_matrices=4, seed=0, repeats=2)
    assert result.speedup >= 5.0, (
        f"structure-reusing LP layer only {result.speedup:.1f}x faster than the "
        f"loop-assembled pipeline ({result.legacy_seconds * 1e3:.0f} ms legacy vs "
        f"{result.structured_seconds * 1e3:.0f} ms structured)"
    )


# ---------------------------------------------------------------------------
# Vectorized training stack: batched rollouts over a VecEnv.
# ---------------------------------------------------------------------------


TRAINING_N_ENVS = 4


def _training_scenario():
    """The gated training workload: the quick-preset GNN curve on NSFNet.

    ``n_envs=4`` with the quick preset's ``n_steps=64`` collects exactly
    ``total_timesteps=256`` environment steps in one vectorized rollout —
    the same steps and the same number of minibatch updates as the
    sequential loop, gathered with 4x fewer policy forward passes.
    """
    return {
        "name": "bench-training",
        "topology": {"name": "nsfnet"},
        "routing": {"policies": ["gnn"]},
        "training": {"preset": "quick", "n_envs": TRAINING_N_ENVS},
        "evaluation": {"metrics": ["learning_curve"], "seeds": [0]},
    }


@pytest.fixture(scope="module")
def training_setup():
    """A warm PPO trainer over 4 lockstep envs (LP caches primed)."""
    from repro import api
    from repro.api.runner import _build_policy, _ppo_config, _SeedRun
    from repro.rl.ppo import PPO, PPOConfig  # noqa: F401 (PPOConfig re-exported use)

    spec = api.ScenarioSpec.from_dict(_training_scenario())
    seed_run = _SeedRun(spec, 0, False)
    pspec = spec.routing.policies[0]
    policy, iterative = _build_policy(
        pspec, seed_run.train_graphs + seed_run.test_graphs, seed_run.scale, 0
    )
    vec = seed_run._training_env(iterative, 1)
    ppo = PPO(policy, vec, _ppo_config(seed_run.scale, pspec.ppo), seed=1)
    ppo.learn(seed_run.scale.total_timesteps)  # warm every reward-path cache
    return ppo


@pytest.mark.benchmark(group="training")
def test_training_rollout_step(benchmark, training_setup):
    """One lockstep timestep: a batched forward + 4 env steps (warm caches)."""
    ppo = training_setup

    def step():
        observations = ppo._last_observations
        actions, log_probs, values = ppo.policy.act_batch(observations, ppo.rng)
        next_observations, rewards, dones, _ = ppo.vec_env.step(actions)
        ppo._last_observations = next_observations
        return rewards

    rewards = benchmark(step)
    assert rewards.shape == (TRAINING_N_ENVS,)


@pytest.mark.benchmark(group="training")
def test_training_minibatch_update(benchmark, training_setup):
    """One full PPO update pass (n_epochs x minibatches) over a 256-sample rollout."""
    from repro.rl.buffer import RolloutBuffer

    ppo = training_setup
    cfg = ppo.config
    buffer = RolloutBuffer(
        cfg.n_steps, gamma=cfg.gamma, gae_lambda=cfg.gae_lambda, n_envs=ppo.vec_env.num_envs
    )
    ppo.collect_rollout(buffer)
    diagnostics = benchmark(ppo.update, buffer)
    assert np.isfinite(diagnostics["policy_loss"])


@pytest.mark.benchmark(group="training")
def test_training_quick_curve(benchmark):
    """The full quick-preset GNN learning curve, cold start to final update.

    This is the workload the frozen pre-vectorisation floor in
    ``BENCH_baseline.json`` pins: ``compare_bench.py`` divides its median
    by the scalar-reference median and requires the result to stay ≥ 1.5x
    (the frozen entry's ``min_speedup``) below the sequential
    implementation's pinned normalized cost.
    """
    from repro import api

    spec = api.ScenarioSpec.from_dict(_training_scenario())

    def curve():
        return api.run(spec)

    result = benchmark.pedantic(curve, rounds=3, iterations=1, warmup_rounds=1)
    curve_points = next(iter(result.curves.values()))[0]
    assert curve_points.timesteps[-1] == 256


# ---------------------------------------------------------------------------
# Graph kernels: shortest-path tables and link-failure candidate scans.
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="graph")
def test_graph_shortest_path_tables(benchmark):
    """Single-path + ECMP tables on the 197-node Cogent-scale graph."""
    from repro.graphs.zoo import topology
    from repro.routing.shortest_path import ecmp_routing, shortest_path_routing

    net = topology("cogent-like")

    def build():
        return shortest_path_routing(net), ecmp_routing(net)

    single, multi = benchmark(build)
    assert single.destination_table().shape == multi.destination_table().shape


@pytest.mark.benchmark(group="graph")
def test_graph_proportional_tables(benchmark):
    """Capacity-proportional + inverse-weight tables on the 197-node graph."""
    from repro.graphs.zoo import topology
    from repro.routing.proportional import (
        capacity_proportional_routing,
        inverse_weight_routing,
    )

    net = topology("cogent-like")
    weights = np.random.default_rng(0).uniform(0.3, 3.0, net.num_edges)

    def build():
        return capacity_proportional_routing(net), inverse_weight_routing(net, weights)

    by_capacity, by_weight = benchmark(build)
    assert by_capacity.destination_table().shape == by_weight.destination_table().shape


@pytest.mark.benchmark(group="graph")
def test_graph_removable_link_scan(benchmark):
    """Every link of the Cogent-scale graph whose loss keeps it connected."""
    from repro.graphs.modifications import removable_links
    from repro.graphs.zoo import topology

    net = topology("cogent-like")
    links = benchmark(removable_links, net)
    assert 0 < len(links) < net.num_edges // 2


# ---------------------------------------------------------------------------
# Dynamics axis: per-step perturbation overhead on the large sparse preset.
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="dynamics")
def test_dynamics_variant_materialisation(benchmark):
    """Applying a two-link outage delta to the 197-node Cogent-scale graph.

    This is the per-distinct-delta cost a timeline pays once (variants are
    memoised per delta): rebuild the edge list, rescale capacities, stamp
    the delta fingerprint into the LP cache slot.
    """
    from repro.graphs.dynamics import NetworkDelta
    from repro.graphs.zoo import topology

    net = topology("cogent-like")
    removable = [tuple(sorted(edge)) for edge in net.edges[:4]]
    delta = NetworkDelta(removed_links=(removable[0], removable[2]))

    variant = benchmark(delta.apply, net)
    assert variant.num_edges == net.num_edges - 4


@pytest.mark.benchmark(group="dynamics")
def test_dynamics_linkflap_preset_evaluation(benchmark):
    """The full zoo-large-sparse-linkflap evaluation (strategies only).

    Together with ``test_dynamics_static_preset_evaluation`` this pins the
    whole-run overhead of the dynamics axis: the delta is two extra
    factorised variants' worth of LP/solve work on top of the static run.
    """
    from repro import api

    spec = api.get_scenario("zoo-large-sparse-linkflap")
    result = benchmark.pedantic(lambda: api.run(spec), rounds=3, iterations=1, warmup_rounds=1)
    assert all(entry.count == 5 for entry in result.strategies.values())


@pytest.mark.benchmark(group="dynamics")
def test_dynamics_static_preset_evaluation(benchmark):
    """The static zoo-large-sparse evaluation — the linkflap bench's floor."""
    from repro import api

    spec = api.get_scenario("zoo-large-sparse")
    result = benchmark.pedantic(lambda: api.run(spec), rounds=3, iterations=1, warmup_rounds=1)
    assert all(entry.count == 5 for entry in result.strategies.values())


# ---------------------------------------------------------------------------
# Routing service: warm-cache request latency, with and without HTTP.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    """A warm deployment on Abilene (strategies only, tiny traffic)."""
    from repro import api

    scenario = api.ScenarioSpec(
        name="bench-service",
        topology={"name": "abilene"},
        traffic={
            "model": "bimodal",
            "length": 8,
            "cycle_length": 4,
            "num_train": 1,
            "num_test": 1,
        },
        routing={"strategies": ["shortest_path", "ecmp"]},
        training={"preset": "quick"},
    )
    # Window 0: these benches measure the per-request path, not the
    # coalescing wait.
    spec = api.ServiceSpec(scenario=scenario, batch_window_ms=0.0)
    with api.serve(spec) as server:
        dm = bimodal_matrix(11, seed=3)
        server.evaluate(api.RouteRequest(demand=dm))  # prime every cache
        yield server, dm


@pytest.mark.benchmark(group="service")
def test_service_request_http(benchmark, service):
    """One warm evaluate through the full client -> HTTP -> tick path."""
    from repro.api.client import Client

    server, dm = service
    client = Client(port=server.port)
    response = benchmark(client.evaluate, dm)
    assert response.entry("shortest_path").ratio >= 1.0


@pytest.mark.benchmark(group="service")
def test_service_engine_tick(benchmark, service):
    """One warm 8-request coalesced tick on the engine, no transport."""
    from repro.api.service import RouteRequest

    server, dm = service
    requests = [RouteRequest(demand=dm) for _ in range(8)]

    def tick():
        return server.engine.evaluate_batch(requests)

    outcomes = benchmark(tick)
    assert all(not isinstance(o, Exception) for o in outcomes)


def test_sparse_backend_beats_dense_on_large_topology():
    """Acceptance check: sparse wins on a ≥ 200-node sparse topology.

    Tier-1 guard for the crossover direction — on a 320-node carrier-style
    graph the sparse backend must beat the dense stack even with cold
    factorisation caches (the measured margin is ~2-3x; 1.2x is asserted so
    only a real regression, not scheduler noise, can fail it).
    """
    from benchmarks.engine_report import backend_comparison

    result = backend_comparison(num_nodes=320, num_matrices=4, seed=0, repeats=3)
    assert result.auto_backend == "sparse", (
        f"auto selection picked {result.auto_backend!r} for a "
        f"{result.num_nodes}-node/{result.num_edges}-edge topology"
    )
    assert result.speedup >= 1.2, (
        f"sparse backend only {result.speedup:.2f}x the dense stack on "
        f"{result.num_nodes} nodes ({result.dense_seconds * 1e3:.1f} ms dense "
        f"vs {result.sparse_seconds * 1e3:.1f} ms sparse)"
    )
