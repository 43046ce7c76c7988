"""Equivalence and behaviour tests for the vectorized batch engine.

The engine must be a drop-in replacement for the scalar routing/simulation
pipeline: every test here pins the batched implementations against the
scalar loop oracles in ``tests/helpers.py`` to 1e-8 on random graphs, and
checks the batch-evaluation API reproduces the environment-driven results.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    SPARSE_MAX_DENSITY,
    SPARSE_MIN_NODES,
    FactorisationCache,
    batch_distances_to_targets,
    batch_softmin_ratios,
    default_backend,
    destination_link_loads,
    destination_link_loads_sequence,
    flow_link_loads,
    select_backend,
    shared_factorisation_cache,
    use_factorisation_cache,
)
from repro.engine.backend import sparse_balance_system
from repro.engine.evaluate import (
    BatchEvaluationResult,
    EvaluationResult,
    batch_evaluate,
    batch_evaluate_routing,
    warm_lp_cache,
    _group_timeline,
)
from repro.envs.reward import RewardComputer
from repro.flows.lp import solve_optimal_max_utilisation
from repro.flows.simulator import RoutingLoopError, link_loads, max_link_utilisation
from repro.graphs import Network, abilene, random_connected_network
from repro.graphs.kernels import decreasing_distance_mask
from repro.api.registry import DYNAMICS
from repro.policies import GNNPolicy, IterativeGNNPolicy, MLPPolicy
from repro.routing.shortest_path import shortest_path_routing
from repro.routing.softmin import softmin_routing
from repro.traffic import bimodal_matrix, cyclical_sequence, sparse_matrix
from repro.traffic.sequences import DemandSequence
from tests.helpers import (
    reference_distances_to,
    reference_link_loads,
    reference_prune_by_distance,
    reference_rollout_policy,
    reference_softmin_routing,
    reference_sparse_balance_system,
    triangle_network,
)


def on(backend, solve, *args):
    """``solve(*args)`` with ``backend`` bound for the call."""
    with default_backend(backend):
        return solve(*args)


def random_case(seed, num_nodes=12, extra_edges=14):
    net = random_connected_network(num_nodes, extra_edges, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 5.0, net.num_edges)
    return net, weights


class TestBatchDistances:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_target_dijkstra(self, seed):
        net, weights = random_case(seed)
        batched = batch_distances_to_targets(net, weights)
        for t in range(net.num_nodes):
            scalar = reference_distances_to(net, weights, t)
            np.testing.assert_allclose(batched[t], scalar, atol=1e-8)

    def test_unreachable_is_inf(self):
        net = Network(3, [(0, 1), (1, 2)])  # one-way line: nothing reaches 0
        distances = batch_distances_to_targets(net, np.ones(2))
        assert np.isinf(distances[0, 1]) and np.isinf(distances[0, 2])
        assert distances[2, 0] == pytest.approx(2.0)


class TestStackedBlock:
    """The block scorer's engine calls equal one call per step, bit for bit."""

    @pytest.mark.parametrize("copies_per_call", [1, 3, 64])
    def test_stacked_distances_match_one_call_each(self, monkeypatch, copies_per_call):
        import repro.graphs.kernels as kernels

        net = Network(4, [(0, 1), (1, 2), (2, 3), (3, 2), (1, 0)])  # 0 and 1 unreachable from 2, 3
        weights = np.random.default_rng(0).uniform(0.1, 5.0, (7, net.num_edges))
        monkeypatch.setattr(kernels, "STACKED_DIJKSTRA_NODES", 4 * copies_per_call)
        stacked = kernels.stacked_distances_to_targets(net, weights)
        expected = np.stack([batch_distances_to_targets(net, w) for w in weights])
        np.testing.assert_array_equal(stacked, expected)
        assert np.isinf(stacked).any()
        # Again over the block patterns the first call memoised.
        np.testing.assert_array_equal(kernels.stacked_distances_to_targets(net, weights), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_softmin_and_loads_match_one_call_each(self, seed):
        from repro.engine.simulator_batch import stacked_destination_link_loads
        from repro.engine.softmin_batch import stacked_softmin_ratios

        net, _ = random_case(seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 5.0, (6, net.num_edges))
        gammas = rng.uniform(0.5, 10.0, 6)
        demands = np.stack([bimodal_matrix(net.num_nodes, seed=seed + i) for i in range(6)])
        demands[2] = 0.0  # a step with no active destination
        demands[4][:, 3] = 0.0  # and one with an idle destination
        tables = stacked_softmin_ratios(net, weights, gammas)
        for table, w, gamma in zip(tables, weights, gammas):
            np.testing.assert_array_equal(table, batch_softmin_ratios(net, w, gamma))
        loads = stacked_destination_link_loads(net, tables, demands)
        for step_loads, table, demand in zip(loads, tables, demands):
            np.testing.assert_array_equal(step_loads, destination_link_loads(net, table, demand))


class TestBatchPrune:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_masks(self, seed):
        net, weights = random_case(seed)
        batched = decreasing_distance_mask(net, batch_distances_to_targets(net, weights))
        for t in range(net.num_nodes):
            np.testing.assert_array_equal(batched[t], reference_prune_by_distance(net, weights, t))


class TestBatchSoftmin:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 8.0])
    def test_matches_scalar_table(self, seed, gamma):
        net, weights = random_case(seed)
        batched = softmin_routing(net, weights, gamma=gamma)
        scalar = reference_softmin_routing(net, weights, gamma=gamma)
        np.testing.assert_allclose(
            batched.destination_table(), scalar.destination_table(), atol=1e-8
        )

    def test_matches_on_abilene(self):
        net = abilene()
        weights = np.random.default_rng(11).uniform(0.3, 3.0, net.num_edges)
        np.testing.assert_allclose(
            batch_softmin_ratios(net, weights, 2.0),
            reference_softmin_routing(net, weights, gamma=2.0).destination_table(),
            atol=1e-8,
        )

    def test_rejects_negative_gamma(self):
        net = triangle_network()
        with pytest.raises(ValueError, match="gamma"):
            softmin_routing(net, np.ones(net.num_edges), gamma=-1.0)


class TestBatchSimulator:
    @pytest.mark.parametrize("seed", range(5))
    def test_destination_loads_match_scalar(self, seed):
        net, weights = random_case(seed)
        routing = softmin_routing(net, weights, gamma=2.0)
        demand = bimodal_matrix(net.num_nodes, seed=seed)
        np.testing.assert_allclose(
            link_loads(net, routing, demand),
            reference_link_loads(net, routing, demand),
            atol=1e-8,
        )

    def test_flow_loads_match_scalar(self):
        net = abilene()
        weights = np.random.default_rng(7).uniform(0.3, 3.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=2.0, pruner="frontier")
        demand = sparse_matrix(net.num_nodes, seed=7, density=0.4)
        np.testing.assert_allclose(
            link_loads(net, routing, demand),
            reference_link_loads(net, routing, demand),
            atol=1e-8,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_loads_match_per_step(self, seed):
        net, weights = random_case(seed)
        routing = softmin_routing(net, weights, gamma=2.0)
        demands = np.stack([bimodal_matrix(net.num_nodes, seed=seed + i) for i in range(5)])
        batched = destination_link_loads_sequence(net, routing.destination_table(), demands)
        for step in range(demands.shape[0]):
            np.testing.assert_allclose(
                batched[step],
                reference_link_loads(net, routing, demands[step]),
                atol=1e-8,
            )

    def test_zero_demand_gives_zero_loads(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        zeros = np.zeros((3, 3))
        np.testing.assert_allclose(destination_link_loads(net, table, zeros), 0.0)
        np.testing.assert_allclose(
            destination_link_loads_sequence(net, table, np.stack([zeros] * 3)), 0.0
        )
        assert flow_link_loads(net, []).shape == (net.num_edges,)

    def test_zero_leak_loop_raises_with_target(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        with pytest.raises(RoutingLoopError, match="destination 2"):
            destination_link_loads(net, table, demand)

    def test_unused_looping_destination_is_skipped(self):
        # The loop sits on destination 2's rows, but only destination 1
        # carries demand — exactly like the scalar simulator, no error.
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        table[1, net.edge_index[(0, 1)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 1] = 4.0
        loads = destination_link_loads(net, table, demand)
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(4.0)


class TestSparseBackend:
    """The sparse splu backend is a drop-in replacement for the dense stack."""

    @pytest.mark.parametrize("seed", range(4))
    def test_destination_loads_match_dense(self, seed):
        net, weights = random_case(seed)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        demand = bimodal_matrix(net.num_nodes, seed=seed)
        np.testing.assert_allclose(
            on("sparse", destination_link_loads, net, table, demand),
            on("dense", destination_link_loads, net, table, demand),
            atol=1e-8,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_loads_match_dense(self, seed):
        net, weights = random_case(seed)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        demands = np.stack([bimodal_matrix(net.num_nodes, seed=seed + i) for i in range(4)])
        np.testing.assert_allclose(
            on("sparse", destination_link_loads_sequence, net, table, demands),
            on("dense", destination_link_loads_sequence, net, table, demands),
            atol=1e-8,
        )

    def test_sparse_matches_scalar_reference(self):
        # The 1e-8 anchor against the original per-destination loop.
        net, weights = random_case(9)
        routing = softmin_routing(net, weights, gamma=2.0)
        demand = bimodal_matrix(net.num_nodes, seed=9)
        np.testing.assert_allclose(
            on("sparse", link_loads, net, routing, demand),
            reference_link_loads(net, routing, demand),
            atol=1e-8,
        )

    def test_flow_loads_match_dense(self):
        net = abilene()
        weights = np.random.default_rng(5).uniform(0.3, 3.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=2.0, pruner="frontier")
        demand = sparse_matrix(net.num_nodes, seed=5, density=0.4)
        np.testing.assert_allclose(
            on("sparse", link_loads, net, routing, demand),
            on("dense", link_loads, net, routing, demand),
            atol=1e-8,
        )

    def test_destination_out_ratios_absorbed_like_dense(self):
        # Malformed table: the destination itself carries an out-ratio.
        # Dense assembly zeroes the destination's *forwarding* entries
        # (sender == target), so the flow is absorbed and the stray ratio
        # never re-injects; the sparse assembly must drop the same axis.
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 2)]] = 1.0
        table[2, net.edge_index[(2, 0)]] = 1.0  # destination forwards (bad)
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        dense = on("dense", destination_link_loads, net, table, demand)
        sparse = on("sparse", destination_link_loads, net, table, demand)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)
        # The zeroed balance system still admits a unique finite solution:
        # one unit reaches the destination (never re-injected), and the
        # load projection applies the stray ratio identically everywhere.
        assert dense[net.edge_index[(0, 2)]] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        negative_zeros=st.booleans(),
    )
    def test_balance_system_arrays_are_byte_identical_to_the_reference(
        self, seed, zero_share, negative_zeros
    ):
        # Zero ratios (including -0.0) must be dropped, the destination's
        # column must keep only its diagonal, and the dtypes must match, so
        # ``splu`` gets exactly the input the COO + identity sum produced.
        rng = np.random.default_rng(seed)
        net = random_connected_network(int(rng.integers(5, 16)), int(rng.integers(0, 5)), seed=seed)
        row = rng.uniform(0.05, 1.0, net.num_edges)
        row[rng.random(net.num_edges) < zero_share] = -0.0 if negative_zeros else 0.0
        target = int(rng.integers(net.num_nodes))
        built = sparse_balance_system(net, row, target)
        expected = reference_sparse_balance_system(net, row, target)
        assert built.format == "csc" and built.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(built, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        column = built.indices[built.indptr[target] : built.indptr[target + 1]]
        np.testing.assert_array_equal(column, [target])  # the absorbing destination

    def test_loop_error_names_the_same_destination_as_the_reference_systems(self):
        from scipy.sparse.linalg import splu

        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[1, net.edge_index[(0, 2)]] = 1.0
        table[1, net.edge_index[(2, 0)]] = 1.0
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        demand[0, 1] = 1.0
        first_singular = None
        for target in (1, 2):  # the ascending order the sparse path walks
            try:
                splu(reference_sparse_balance_system(net, table[target], target))
            except RuntimeError:
                first_singular = target
                break
        assert first_singular == 1
        with use_factorisation_cache(FactorisationCache()):
            with pytest.raises(RoutingLoopError, match=f"destination {first_singular} "):
                on("sparse", destination_link_loads, net, table, demand)

    def test_loop_error_names_same_destination_as_dense(self):
        # Singular sparse systems must name the first offending destination
        # in ascending order, exactly like the dense path.
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        # Destination 1's flow recirculates between 0 and 2; destination
        # 2's between 0 and 1 — both systems are singular.
        table[1, net.edge_index[(0, 2)]] = 1.0
        table[1, net.edge_index[(2, 0)]] = 1.0
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        demand[0, 1] = 1.0
        messages = {}
        for backend in ("dense", "sparse"):
            with pytest.raises(RoutingLoopError) as excinfo:
                on(backend, destination_link_loads, net, table, demand)
            messages[backend] = str(excinfo.value)
        assert "destination 1" in messages["dense"]
        assert "destination 1" in messages["sparse"]

    def test_unused_looping_destination_is_skipped(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        table[1, net.edge_index[(0, 1)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 1] = 4.0
        loads = on("sparse", destination_link_loads, net, table, demand)
        assert loads[net.edge_index[(0, 1)]] == pytest.approx(4.0)


class TestBackendSelection:
    def test_small_graph_stays_dense(self):
        assert select_backend(abilene()) == "dense"

    def test_large_sparse_graph_selects_sparse(self):
        net = random_connected_network(SPARSE_MIN_NODES + 40, 60, seed=0)
        assert select_backend(net) == "sparse"

    def test_large_dense_graph_stays_dense(self):
        # Node count qualifies but density disqualifies.
        n = SPARSE_MIN_NODES
        extra = int(SPARSE_MAX_DENSITY * n * (n - 1)) // 2 + n
        net = random_connected_network(n, extra, seed=0)
        assert select_backend(net) == "dense"

    def test_default_backend_context_steers_auto(self):
        net = abilene()
        assert select_backend(net) == "dense"
        with default_backend("sparse"):
            assert select_backend(net) == "sparse"
            with default_backend("auto"):
                assert select_backend(net) == "dense"  # the size rule again
        assert select_backend(net) == "dense"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            with default_backend("gpu"):
                pass  # pragma: no cover - the context must raise on entry

    def test_default_backend_is_thread_local(self):
        import threading

        net = abilene()
        main_holds = threading.Event()
        worker_done = threading.Event()
        seen = {}

        def worker():
            main_holds.wait(5.0)
            # The main thread's ambient "sparse" must not leak here.
            seen["worker"] = select_backend(net)
            worker_done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        with default_backend("sparse"):
            main_holds.set()
            assert worker_done.wait(5.0)
            seen["main"] = select_backend(net)
        thread.join(timeout=5.0)
        assert seen == {"worker": "dense", "main": "sparse"}

    def test_shared_caches_are_thread_locally_overridable(self):
        import threading

        from repro.engine.backend import SHARED_FACTORISATION_CACHE

        private = FactorisationCache(max_entries=4)
        inside = threading.Event()
        seen = {}

        def worker():
            inside.wait(5.0)
            seen["worker"] = shared_factorisation_cache()

        thread = threading.Thread(target=worker)
        thread.start()
        with use_factorisation_cache(private):
            inside.set()
            seen["main"] = shared_factorisation_cache()
            thread.join(timeout=5.0)
        assert seen["main"] is private
        assert seen["worker"] is SHARED_FACTORISATION_CACHE
        assert shared_factorisation_cache() is SHARED_FACTORISATION_CACHE


class TestFactorisationCache:
    def _workload(self, seed=0):
        net, weights = random_case(seed)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        demand = bimodal_matrix(net.num_nodes, seed=seed)
        return net, table, demand

    def test_repeated_solves_hit_the_cache(self):
        net, table, demand = self._workload()
        with use_factorisation_cache(FactorisationCache()) as cache:
            on("sparse", destination_link_loads, net, table, demand)
            assert cache.misses == net.num_nodes and cache.hits == 0
            on("sparse", destination_link_loads, net, table, demand)
        assert cache.hits == net.num_nodes  # the fixed routing re-solves free

    def test_cached_results_stay_correct(self):
        net, table, demand = self._workload(3)
        with use_factorisation_cache(FactorisationCache()):
            first = on("sparse", destination_link_loads, net, table, demand)
            again = on("sparse", destination_link_loads, net, table, demand)
        np.testing.assert_allclose(again, first, atol=0.0)
        np.testing.assert_allclose(
            again, on("dense", destination_link_loads, net, table, demand), atol=1e-8
        )

    def test_different_routings_do_not_collide(self):
        net, weights = random_case(1)
        cache = FactorisationCache()
        demand = bimodal_matrix(net.num_nodes, seed=1)
        for gamma in (1.0, 4.0):
            table = softmin_routing(net, weights, gamma=gamma).destination_table()
            dense = on("dense", destination_link_loads, net, table, demand)
            with use_factorisation_cache(cache):
                sparse = on("sparse", destination_link_loads, net, table, demand)
            np.testing.assert_allclose(sparse, dense, atol=1e-8)
        assert cache.hits == 0 and cache.misses == 2 * net.num_nodes

    def test_eviction_respects_max_entries(self):
        net, table, demand = self._workload()
        with use_factorisation_cache(FactorisationCache(max_entries=4)) as cache:
            on("sparse", destination_link_loads, net, table, demand)
        assert len(cache) == 4

    def test_sequence_and_flow_solves_use_the_bound_cache(self):
        net, weights = random_case(2)
        demand = bimodal_matrix(net.num_nodes, seed=2)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        flows = softmin_routing(net, weights, gamma=2.0, pruner="frontier")
        shared = shared_factorisation_cache()
        before = shared.hits + shared.misses
        with use_factorisation_cache(FactorisationCache()) as cache:
            on("sparse", destination_link_loads_sequence, net, table, demand[np.newaxis])
            assert cache.misses == net.num_nodes
            on("sparse", link_loads, net, flows, demand)
        positive = int(np.count_nonzero(demand))
        assert cache.hits + cache.misses == net.num_nodes + positive  # one lookup per flow
        assert shared.hits + shared.misses == before

    def test_shared_cache_is_the_default(self):
        net, table, demand = self._workload(7)
        shared = shared_factorisation_cache()
        before = shared.hits + shared.misses
        on("sparse", destination_link_loads, net, table, demand)
        assert shared.hits + shared.misses > before

    def test_clear(self):
        net, table, demand = self._workload()
        with use_factorisation_cache(FactorisationCache()) as cache:
            on("sparse", destination_link_loads, net, table, demand)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            FactorisationCache(max_entries=0)


class TestZeroDemandBehaviour:
    def test_utilisation_ratio_defined(self):
        # Zero demand is scored 1.0 without solving (or caching) an LP.
        net = triangle_network()
        rewarder = RewardComputer()
        assert rewarder.utilisation_ratio(net, shortest_path_routing(net), np.zeros((3, 3))) == 1.0
        assert rewarder.cache.misses == 0

    def test_reward_computer_defined(self):
        net = triangle_network()
        routing = softmin_routing(net, np.ones(net.num_edges), gamma=2.0)
        assert RewardComputer().utilisation_ratio(net, routing, np.zeros((3, 3))) == 1.0

    @pytest.mark.parametrize("shape", [(5, 5), (2, 3, 4)])
    @pytest.mark.parametrize(
        "ratio",
        [
            lambda net, dm: RewardComputer().utilisation_ratio(net, shortest_path_routing(net), dm),
            lambda net, dm: RewardComputer().ratio_from_achieved(net, 0.0, dm),
        ],
        ids=["utilisation_ratio", "ratio_from_achieved"],
    )
    def test_wrong_shape_zero_demand_raises(self, ratio, shape):
        # The DM is validated before the zero-demand rule applies.
        with pytest.raises(ValueError, match="demand.matrix"):
            ratio(abilene(), np.zeros(shape))

    def test_sparse_sequence_with_zero_matrix_does_not_abort(self):
        net = abilene()
        n = net.num_nodes
        demands = np.stack([bimodal_matrix(n, seed=0), np.zeros((n, n)), bimodal_matrix(n, seed=1)])
        sequence = DemandSequence(demands)
        result = batch_evaluate_routing(
            shortest_path_routing, net, [sequence], memory_length=0
        )
        assert result.combined.count == 3
        assert result.combined.ratios[1] == 1.0


class TestNonFiniteDemand:
    """NaN or infinite demand raises; NaN used to fail every ``> 0`` filter
    and be scored as zero demand (ratio 1.0)."""

    @pytest.mark.parametrize(
        "score",
        [
            lambda net, dm: max_link_utilisation(net, shortest_path_routing(net), dm),
            lambda net, dm: RewardComputer().utilisation_ratio(net, shortest_path_routing(net), dm),
            lambda net, dm: solve_optimal_max_utilisation(net, dm),
        ],
        ids=["max_link_utilisation", "reward_computer", "lp"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_scoring_rejects(self, score, value):
        dm = np.zeros((11, 11))
        dm[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            score(abilene(), dm)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_demand_sequence_rejects(self, value):
        demands = np.stack([bimodal_matrix(11, seed=0)] * 2)
        demands[1, 0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            DemandSequence(demands)


class TestDemandValidatedOnce:
    """A scored step validates its demand matrix once along the reward path."""

    def test_reward_checks_the_demand_matrix_once(self, monkeypatch):
        import repro.envs.reward as reward_module
        import repro.flows.lp as lp_module
        import repro.flows.simulator as simulator_module
        from repro.envs import RoutingEnv
        from repro.utils.validation import check_demand_matrix

        calls = []

        def counting(matrix, num_nodes):
            calls.append(num_nodes)
            return check_demand_matrix(matrix, num_nodes)

        for module in (reward_module, simulator_module, lp_module):
            monkeypatch.setattr(module, "check_demand_matrix", counting)
        net = abilene()
        sequence = cyclical_sequence(net.num_nodes, 4, 2, seed=0)
        env = RoutingEnv(net, [sequence], memory_length=1, sample_sequences=False, seed=0)
        env.reset()
        env.step(np.zeros(net.num_edges))
        assert len(calls) == 2  # the block scorer, then the LP on its cache miss
        calls.clear()
        env.reset()
        env.step(np.zeros(net.num_edges))
        assert len(calls) == 1  # the optimum is cached: the block scorer only
        calls.clear()
        weights = np.ones(net.num_edges)
        env.rewarder.block_ratios([(net, weights, 2.0, sequence.matrix(1))] * 3)
        assert len(calls) == 3  # one per scored DM


class TestEmptyEvaluationResult:
    """Empty results (count == 0) are NaN, silently — never a RuntimeWarning."""

    def test_mean_and_std_are_nan_without_warning(self):
        result = EvaluationResult(())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.count == 0
            assert math.isnan(result.mean)
            assert math.isnan(result.std)
            assert "nan" in repr(result)

    def test_batch_combined_path_empty(self):
        batched = BatchEvaluationResult((EvaluationResult(()),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batched.combined.count == 0
            assert math.isnan(batched.mean)

    def test_routing_path_with_memory_consuming_whole_sequence(self):
        # memory_length >= len(sequence) leaves no post-warmup steps: the
        # result is legitimately empty, not a warning storm.
        net = abilene()
        sequence = cyclical_sequence(net.num_nodes, 4, 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = batch_evaluate_routing(
                shortest_path_routing, net, [sequence], memory_length=4
            )
            assert result.combined.count == 0
            assert math.isnan(result.combined.mean)

    def test_nonempty_results_unchanged(self):
        result = EvaluationResult((1.0, 2.0, 3.0))
        assert result.mean == pytest.approx(2.0)
        assert result.std == pytest.approx(np.std([1.0, 2.0, 3.0]))


class TestBatchEvaluate:
    def _setup(self):
        net = abilene()
        seqs = [cyclical_sequence(net.num_nodes, 8, 4, seed=i) for i in range(2)]
        return net, seqs

    def test_single_network_matches_list_form(self):
        net, seqs = self._setup()
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        listed = batch_evaluate(policy, [net], [seqs], memory_length=3)
        batched = batch_evaluate(policy, net, seqs, memory_length=3)
        assert isinstance(batched, BatchEvaluationResult)
        assert len(batched.per_network) == 1
        np.testing.assert_allclose(
            batched.per_network[0].ratios, listed.per_network[0].ratios, rtol=1e-12
        )

    def test_many_networks_one_call(self):
        net_a = abilene()
        net_b = random_connected_network(8, 8, seed=1)
        groups = [
            [cyclical_sequence(net_a.num_nodes, 6, 3, seed=0)],
            [cyclical_sequence(net_b.num_nodes, 6, 3, seed=1)],
        ]
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        result = batch_evaluate(policy, [net_a, net_b], groups, memory_length=3)
        assert len(result.per_network) == 2
        assert result.combined.count == sum(r.count for r in result.per_network)
        assert result.mean >= 1.0 - 1e-6

    def test_iterative_policy_supported(self):
        net, seqs = self._setup()
        policy = IterativeGNNPolicy(
            memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0
        )
        result = batch_evaluate(policy, net, seqs, memory_length=3, iterative=True)
        assert result.combined.count == 2 * (8 - 3)

    def test_misaligned_groups_rejected(self):
        net, seqs = self._setup()
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, seed=0)
        with pytest.raises(ValueError, match="sequence groups"):
            batch_evaluate(policy, [net, net], [seqs], memory_length=3)

    def test_routing_baseline_matches_env_driven(self):
        net, seqs = self._setup()
        rewarder = RewardComputer()
        batched = batch_evaluate_routing(
            shortest_path_routing, net, seqs, memory_length=3, reward_computer=rewarder
        ).per_network[0]
        routing = shortest_path_routing(net)
        direct = [
            rewarder.utilisation_ratio(net, routing, seq.matrix(step))
            for seq in seqs
            for step in range(3, len(seq))
        ]
        np.testing.assert_allclose(batched.ratios, direct, rtol=1e-8)
        assert batched.count == 2 * (8 - 3)

    def test_routing_backends_agree(self):
        net, seqs = self._setup()
        dense = batch_evaluate_routing(
            shortest_path_routing, net, seqs, memory_length=3, backend="dense"
        )
        sparse = batch_evaluate_routing(
            shortest_path_routing, net, seqs, memory_length=3, backend="sparse"
        )
        np.testing.assert_allclose(sparse.ratios, dense.ratios, rtol=1e-8)

    def test_routing_backend_argument_overrides_an_outer_binding(self):
        # backend="auto" is bound for the whole call, so the destination
        # path picks dense by the size rule here, as the per-flow path does.
        net, seqs = self._setup()
        with default_backend("sparse"), use_factorisation_cache(FactorisationCache()) as cache:
            batch_evaluate_routing(shortest_path_routing, net, seqs, memory_length=3)
        assert cache.misses == 0

    def test_policy_evaluation_backends_agree(self):
        net, seqs = self._setup()
        policy = GNNPolicy(memory_length=3, latent=8, hidden=8, num_processing_steps=2, seed=0)
        dense = batch_evaluate(policy, net, seqs, memory_length=3, backend="dense")
        sparse = batch_evaluate(policy, net, seqs, memory_length=3, backend="sparse")
        np.testing.assert_allclose(sparse.ratios, dense.ratios, rtol=1e-8)

    def test_warm_lp_cache_deduplicates(self):
        net, seqs = self._setup()
        rewarder = RewardComputer()
        solved = warm_lp_cache(net, seqs, rewarder, memory_length=3)
        # cyclical sequences: at most cycle_length distinct DMs each
        assert 0 < solved <= 2 * 4
        assert len(rewarder.cache) == solved
        # a second warm pass performs no new solves
        assert warm_lp_cache(net, seqs, rewarder, memory_length=3) == solved


def _evaluation_policy(kind, network, memory, seed):
    if kind == "mlp":
        return MLPPolicy(network.num_nodes, network.num_edges, memory, hidden=(16,), seed=seed)
    cls = IterativeGNNPolicy if kind == "iterative" else GNNPolicy
    return cls(memory_length=memory, latent=8, hidden=8, num_processing_steps=2, seed=seed)


def _assert_matches_stepping_oracle(policy, groups, *, iterative, dynamics=None):
    """``batch_evaluate`` equals the env-stepping oracle per group, bit for bit."""
    options = dict(memory_length=3, softmin_gamma=2.0, weight_scale=3.0, seed=0)
    rewarder = RewardComputer()
    networks = [network for network, _ in groups]
    batched = batch_evaluate(
        policy,
        networks,
        [sequences for _, sequences in groups],
        iterative=iterative,
        reward_computer=rewarder,
        dynamics=dynamics,
        **options,
    )
    assert len(batched.per_network) == len(groups)
    for (network, sequences), result in zip(groups, batched.per_network):
        timeline, sequences = _group_timeline(dynamics, network, sequences)
        expected = reference_rollout_policy(
            policy,
            network,
            sequences,
            iterative=iterative,
            rewarder=rewarder,
            timeline=timeline,
            **options,
        ).ratios
        assert result.count == len(expected) == sum(len(s) - 3 for s in sequences)
        assert result.ratios == expected


class TestBatchedPolicyEvaluation:
    """One forward per batch of observations scores exactly like stepping the envs.

    Policy forwards are batch-invariant, so each observation's action is the
    one a batch of one would have produced.
    """

    @pytest.mark.parametrize("kind", ["mlp", "gnn", "iterative"])
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_sequences=st.integers(1, 3),
        num_groups=st.integers(1, 2),
    )
    def test_matches_stepping_oracle(self, kind, seed, num_sequences, num_groups):
        # The MLP is fixed-size, so its groups share one topology.
        networks = [
            random_connected_network(6 + (0 if kind == "mlp" else g), 4, seed=seed + g)
            for g in range(num_groups)
        ]
        groups = [
            (
                network,
                [
                    cyclical_sequence(network.num_nodes, 6, 3, seed=seed + 7 * g + i)
                    for i in range(num_sequences)
                ],
            )
            for g, network in enumerate(networks)
        ]
        policy = _evaluation_policy(kind, networks[0], 3, seed)
        _assert_matches_stepping_oracle(policy, groups, iterative=kind == "iterative")

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**16), num_failures=st.integers(1, 2))
    def test_gnn_under_link_flap_mixes_variants_in_one_forward(self, seed, num_failures):
        network = abilene()
        sequences = [cyclical_sequence(network.num_nodes, 9, 3, seed=seed + i) for i in range(2)]

        def flap(net, length):
            return DYNAMICS.get("link_flap")(net, length, num_failures=num_failures, seed=seed)

        timeline, _ = _group_timeline(flap, network, sequences)
        edge_counts = {timeline.network_at(step).num_edges for step in range(3, 9)}
        assert len(edge_counts) == 2  # one batch_graphs call sees both variants
        policy = _evaluation_policy("gnn", network, 3, seed)
        _assert_matches_stepping_oracle(
            policy, [(network, sequences)], iterative=False, dynamics=flap
        )

    def test_one_forward_per_network_and_one_per_edge_when_iterative(self, monkeypatch):
        from repro.policies.base import ActorCriticPolicy

        batch_sizes = []
        original = ActorCriticPolicy.act_batch

        def counting(policy, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return original(policy, observations, *args, **kwargs)

        monkeypatch.setattr(ActorCriticPolicy, "act_batch", counting)
        monkeypatch.setattr(GNNPolicy, "act_batch", counting)
        net = abilene()
        seqs = [cyclical_sequence(net.num_nodes, 8, 4, seed=i) for i in range(2)]
        batch_evaluate(_evaluation_policy("gnn", net, 3, 0), net, seqs, memory_length=3)
        assert batch_sizes == [2 * (8 - 3)]
        batch_sizes.clear()
        batch_evaluate(
            _evaluation_policy("iterative", net, 3, 0), net, seqs, memory_length=3, iterative=True
        )
        assert batch_sizes == [2 * (8 - 3)] * net.num_edges

    @pytest.mark.parametrize("kind", ["gnn", "iterative"])
    def test_slicing_the_test_steps_changes_only_batch_sizes(self, kind, monkeypatch):
        from repro.engine import evaluate as evaluate_module
        from repro.policies.base import ActorCriticPolicy

        net = abilene()
        seqs = [cyclical_sequence(net.num_nodes, 8, 4, seed=i) for i in range(2)]
        iterative = kind == "iterative"
        policy = _evaluation_policy(kind, net, 3, 0)
        whole = batch_evaluate(policy, net, seqs, memory_length=3, iterative=iterative)

        batch_sizes = []
        original = ActorCriticPolicy.act_batch

        def counting(policy, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return original(policy, observations, *args, **kwargs)

        monkeypatch.setattr(ActorCriticPolicy, "act_batch", counting)
        monkeypatch.setattr(GNNPolicy, "act_batch", counting)
        monkeypatch.setattr(evaluate_module, "EVALUATION_BATCH", 4)
        sliced = batch_evaluate(policy, net, seqs, memory_length=3, iterative=iterative)
        assert sliced.ratios == whole.ratios
        forwards_per_slice = net.num_edges if iterative else 1
        assert batch_sizes == [size for size in (4, 4, 2) for _ in range(forwards_per_slice)]
