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

from repro.engine import (
    SPARSE_MAX_DENSITY,
    SPARSE_MIN_NODES,
    FactorisationCache,
    batch_distances_to_targets,
    batch_prune_by_distance,
    batch_softmin_ratios,
    default_backend,
    destination_link_loads,
    destination_link_loads_sequence,
    flow_link_loads,
    select_backend,
    shared_factorisation_cache,
)
from repro.engine.evaluate import (
    BatchEvaluationResult,
    EvaluationResult,
    batch_evaluate,
    batch_evaluate_routing,
    warm_lp_cache,
)
from repro.envs.reward import RewardComputer
from repro.flows.simulator import RoutingLoopError, link_loads, utilisation_ratio
from repro.graphs import Network, abilene, random_connected_network
from repro.policies import GNNPolicy, IterativeGNNPolicy
from repro.routing.shortest_path import shortest_path_routing
from repro.routing.softmin import softmin_routing
from repro.traffic import bimodal_matrix, cyclical_sequence, sparse_matrix
from repro.traffic.sequences import DemandSequence
from tests.helpers import (
    reference_distances_to,
    reference_link_loads,
    reference_prune_by_distance,
    reference_softmin_routing,
    triangle_network,
)


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


class TestBatchPrune:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_masks(self, seed):
        net, weights = random_case(seed)
        batched = batch_prune_by_distance(net, weights)
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
            destination_link_loads(net, table, demand, backend="sparse"),
            destination_link_loads(net, table, demand, backend="dense"),
            atol=1e-8,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_loads_match_dense(self, seed):
        net, weights = random_case(seed)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        demands = np.stack([bimodal_matrix(net.num_nodes, seed=seed + i) for i in range(4)])
        np.testing.assert_allclose(
            destination_link_loads_sequence(net, table, demands, backend="sparse"),
            destination_link_loads_sequence(net, table, demands, backend="dense"),
            atol=1e-8,
        )

    def test_sparse_matches_scalar_reference(self):
        # The 1e-8 anchor against the original per-destination loop.
        net, weights = random_case(9)
        routing = softmin_routing(net, weights, gamma=2.0)
        demand = bimodal_matrix(net.num_nodes, seed=9)
        np.testing.assert_allclose(
            link_loads(net, routing, demand, backend="sparse"),
            reference_link_loads(net, routing, demand),
            atol=1e-8,
        )

    def test_flow_loads_match_dense(self):
        net = abilene()
        weights = np.random.default_rng(5).uniform(0.3, 3.0, net.num_edges)
        routing = softmin_routing(net, weights, gamma=2.0, pruner="frontier")
        demand = sparse_matrix(net.num_nodes, seed=5, density=0.4)
        np.testing.assert_allclose(
            link_loads(net, routing, demand, backend="sparse"),
            link_loads(net, routing, demand, backend="dense"),
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
        dense = destination_link_loads(net, table, demand, backend="dense")
        sparse = destination_link_loads(net, table, demand, backend="sparse")
        np.testing.assert_allclose(sparse, dense, atol=1e-12)
        # The zeroed balance system still admits a unique finite solution:
        # one unit reaches the destination (never re-injected), and the
        # load projection applies the stray ratio identically everywhere.
        assert dense[net.edge_index[(0, 2)]] == pytest.approx(1.0)

    def test_invalid_backend_rejected(self):
        net, weights = random_case(0)
        table = softmin_routing(net, weights, gamma=2.0).destination_table()
        with pytest.raises(ValueError, match="backend"):
            destination_link_loads(net, table, np.ones((12, 12)), backend="cuda")

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
                destination_link_loads(net, table, demand, backend=backend)
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
        loads = destination_link_loads(net, table, demand, backend="sparse")
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

    def test_explicit_request_wins(self):
        assert select_backend(abilene(), "sparse") == "sparse"
        assert select_backend(random_connected_network(200, 60, seed=0), "dense") == "dense"

    def test_default_backend_context_steers_auto(self):
        net = abilene()
        assert select_backend(net) == "dense"
        with default_backend("sparse"):
            assert select_backend(net) == "sparse"
            # Explicit call-site choices still win over the ambient default.
            assert select_backend(net, "dense") == "dense"
        assert select_backend(net) == "dense"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            select_backend(abilene(), "fast")
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

        from repro.engine.backend import (
            SHARED_FACTORISATION_CACHE,
            shared_factorisation_cache,
            use_factorisation_cache,
        )

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
        cache = FactorisationCache()
        destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        assert cache.misses == net.num_nodes and cache.hits == 0
        destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        assert cache.hits == net.num_nodes  # the fixed routing re-solves free

    def test_cached_results_stay_correct(self):
        net, table, demand = self._workload(3)
        cache = FactorisationCache()
        first = destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        again = destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        np.testing.assert_allclose(again, first, atol=0.0)
        np.testing.assert_allclose(
            again, destination_link_loads(net, table, demand, backend="dense"), atol=1e-8
        )

    def test_different_routings_do_not_collide(self):
        net, weights = random_case(1)
        cache = FactorisationCache()
        demand = bimodal_matrix(net.num_nodes, seed=1)
        for gamma in (1.0, 4.0):
            table = softmin_routing(net, weights, gamma=gamma).destination_table()
            np.testing.assert_allclose(
                destination_link_loads(net, table, demand, backend="sparse", cache=cache),
                destination_link_loads(net, table, demand, backend="dense"),
                atol=1e-8,
            )
        assert cache.hits == 0 and cache.misses == 2 * net.num_nodes

    def test_eviction_respects_max_entries(self):
        net, table, demand = self._workload()
        cache = FactorisationCache(max_entries=4)
        destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        assert len(cache) == 4

    def test_shared_cache_is_the_default(self):
        net, table, demand = self._workload(7)
        shared = shared_factorisation_cache()
        before = shared.hits + shared.misses
        destination_link_loads(net, table, demand, backend="sparse")
        assert shared.hits + shared.misses > before

    def test_clear(self):
        cache = FactorisationCache()
        net, table, demand = self._workload()
        destination_link_loads(net, table, demand, backend="sparse", cache=cache)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            FactorisationCache(max_entries=0)


class TestZeroDemandBehaviour:
    def test_utilisation_ratio_defined(self):
        net = triangle_network()
        routing = softmin_routing(net, np.ones(net.num_edges), gamma=2.0)
        assert utilisation_ratio(net, routing, np.zeros((3, 3))) == 1.0

    def test_reward_computer_defined(self):
        net = triangle_network()
        routing = softmin_routing(net, np.ones(net.num_edges), gamma=2.0)
        assert RewardComputer().utilisation_ratio(net, routing, np.zeros((3, 3))) == 1.0

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

    def test_warm_lp_cache_parallel_matches_serial(self):
        net, seqs = self._setup()
        serial = RewardComputer()
        count = warm_lp_cache(net, seqs, serial, memory_length=3)
        parallel = RewardComputer()
        assert warm_lp_cache(net, seqs, parallel, memory_length=3, workers=2) == count
        assert len(parallel.cache) == len(serial.cache)
        for seq in seqs:
            for step in range(3, len(seq)):
                dm = seq.matrix(step)
                if np.any(dm > 0.0):
                    assert parallel.cache.optimal_max_utilisation(net, dm) == pytest.approx(
                        serial.cache.optimal_max_utilisation(net, dm), abs=1e-12
                    )
        # already-warm caches skip the pool entirely but report the same count
        assert warm_lp_cache(net, seqs, parallel, memory_length=3, workers=2) == count

    def test_warm_lp_cache_rejects_bad_workers(self):
        net, seqs = self._setup()
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ValueError, match="workers"):
                warm_lp_cache(net, seqs, RewardComputer(), memory_length=3, workers=bad)
