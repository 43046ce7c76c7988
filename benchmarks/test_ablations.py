"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper figures — these quantify the substitutions and free parameters
of the reproduction:

* DAG rule: the paper's Figure 3 frontier-meet algorithm vs the
  destination-based distance rule (routing quality on identical weights);
* softmin γ sweep: the spread/quality trade-off of Equation 3;
* LP formulation: destination-aggregated vs per-pair commodity solve time
  and agreement;
* observation memory length: the value of demand history.
"""

import numpy as np
import pytest

from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import max_link_utilisation
from repro.graphs import abilene
from repro.routing.softmin import softmin_routing
from repro.traffic import bimodal_matrix, cyclical_sequence
from tests.helpers import reference_mcf_per_pair

# Full experiment runs: excluded from tier-1 (see pyproject addopts);
# run with `pytest benchmarks -m ''` or the nightly benchmark workflow.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def abilene_demand():
    net = abilene()
    dm = bimodal_matrix(net.num_nodes, seed=0)
    optimal = solve_optimal_max_utilisation(net, dm).max_utilisation
    return net, dm, optimal


@pytest.mark.benchmark(group="ablation-dag")
@pytest.mark.parametrize("pruner", ["distance", "frontier"])
def test_dag_rule_quality(benchmark, abilene_demand, pruner):
    """Both DAG rules must deliver all traffic; report their quality gap."""
    net, dm, optimal = abilene_demand
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.3, 3.0, net.num_edges)

    def translate_and_measure():
        routing = softmin_routing(net, weights, gamma=2.0, pruner=pruner)
        return max_link_utilisation(net, routing, dm) / optimal

    ratio = benchmark(translate_and_measure)
    print(f"\n  DAG rule {pruner!r}: utilisation ratio {ratio:.4f}")
    assert 1.0 - 1e-6 <= ratio < 5.0


@pytest.mark.benchmark(group="ablation-gamma")
def test_softmin_gamma_sweep(benchmark, abilene_demand):
    """Sweep Equation 3's γ: small spreads traffic, large converges to
    weighted shortest path.  Prints the γ → ratio series."""
    net, dm, optimal = abilene_demand
    weights = np.ones(net.num_edges)
    gammas = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

    def sweep():
        return {
            gamma: max_link_utilisation(
                net, softmin_routing(net, weights, gamma=gamma), dm
            )
            / optimal
            for gamma in gammas
        }

    ratios = benchmark(sweep)
    print()
    for gamma, ratio in ratios.items():
        print(f"  gamma={gamma:<5} utilisation ratio {ratio:.4f}")
    assert all(r >= 1.0 - 1e-6 for r in ratios.values())
    # Uniform weights: moderate spread must not be worse than near-argmin.
    assert ratios[2.0] <= ratios[16.0] + 1e-6


@pytest.mark.benchmark(group="ablation-lp")
@pytest.mark.parametrize("formulation", ["aggregated", "per_pair"])
def test_lp_formulation_cost(benchmark, abilene_demand, formulation):
    """Destination aggregation gives the same optimum orders of magnitude
    faster; this bench records both sides."""
    net, dm, _ = abilene_demand
    solver = (
        solve_optimal_max_utilisation if formulation == "aggregated" else reference_mcf_per_pair
    )
    result = benchmark(solver, net, dm)
    reference = solve_optimal_max_utilisation(net, dm).max_utilisation
    assert result.max_utilisation == pytest.approx(reference, rel=1e-6)


@pytest.mark.benchmark(group="ablation-reducer")
@pytest.mark.parametrize("reducer", ["sum", "mean", "attention"])
def test_gn_reducer_forward_cost(benchmark, reducer):
    """Aggregation ablation (paper §VII-A weighs GAT vs the full GN block):
    forward cost and output sanity of each ρ pooling on the same batch."""
    from repro.envs.observation import GraphObservation
    from repro.policies import GNNPolicy

    net = abilene()
    dm = bimodal_matrix(net.num_nodes, seed=2)
    policy = GNNPolicy(
        memory_length=5, latent=16, hidden=32, num_processing_steps=3,
        reducer=reducer, seed=0,
    )
    obs = GraphObservation(net, np.stack([dm] * 5) / dm.mean())
    rng = np.random.default_rng(0)
    actions, _, values = benchmark(policy.act_batch, [obs], rng)
    assert actions[0].shape == (net.num_edges,)
    assert np.isfinite(values[0])


@pytest.mark.benchmark(group="ablation-memory")
def test_memory_length_observation_size(benchmark):
    """History window scaling: the GNN observation stays O(|V|) per step
    (paper §V-B) while the MLP input grows as memory * |V|^2."""
    from repro.envs.observation import GraphObservation

    net = abilene()
    seq = cyclical_sequence(net.num_nodes, 30, 5, seed=0)

    def featurize_all_memories():
        sizes = {}
        for memory in (1, 3, 5, 10):
            obs = GraphObservation(net, seq.history(20, memory))
            sizes[memory] = (obs.node_demand_features().shape, obs.flat().shape)
        return sizes

    sizes = benchmark(featurize_all_memories)
    print()
    for memory, (gnn_shape, mlp_shape) in sizes.items():
        print(f"  memory={memory:<3} GNN node features {gnn_shape}, MLP input {mlp_shape}")
        assert gnn_shape == (net.num_nodes, 2 * memory)
        assert mlp_shape == (memory * net.num_nodes**2,)
