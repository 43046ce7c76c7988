"""Tests for the optimal-routing LP oracle.

Includes the key substitution check promised in DESIGN.md: the
destination-aggregated formulation must agree with the paper's per-pair
formulation on every tested instance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.flows import lp
from repro.flows.lp import (
    BASE_MEMO_ENTRIES,
    SHARED_LP_CACHE,
    InfeasibleRoutingError,
    LinearProgramCache,
    LinearProgramStructure,
    OptimalUtilisationCache,
    demand_destinations,
    direct_solver_available,
    network_fingerprint,
    shared_lp_cache,
    solve_optimal_max_utilisation,
    use_lp_cache,
)
from repro.graphs import Network, abilene, random_connected_network
from repro.graphs.dynamics import NetworkDelta
from repro.graphs.kernels import undirected_links
from repro.traffic import bimodal_matrix, gravity_matrix, sparse_matrix
from tests.helpers import (
    line_network,
    reference_lp_assemble,
    reference_lp_solve,
    reference_mcf_per_pair,
    square_network,
    triangle_network,
)


def dm_single(n, s, t, d):
    dm = np.zeros((n, n))
    dm[s, t] = d
    return dm


class TestKnownOptima:
    def test_line_graph_single_flow(self):
        # 0-1-2-3 line, capacity 10: flow 5 from 0 to 3 loads every link 0.5.
        net = line_network(4, capacity=10.0)
        result = solve_optimal_max_utilisation(net, dm_single(4, 0, 3, 5.0))
        assert result.max_utilisation == pytest.approx(0.5)

    def test_triangle_two_disjoint_paths(self):
        # 0->2 direct or via 1: optimal splits demand across both.
        net = triangle_network(capacity=10.0)
        result = solve_optimal_max_utilisation(net, dm_single(3, 0, 2, 10.0))
        assert result.max_utilisation == pytest.approx(0.5)

    def test_square_three_paths(self):
        # 0->2: direct diagonal, via 1, via 3 -> three edge-disjoint paths.
        net = square_network(capacity=9.0)
        result = solve_optimal_max_utilisation(net, dm_single(4, 0, 2, 9.0))
        assert result.max_utilisation == pytest.approx(1.0 / 3.0)

    def test_zero_demand(self):
        net = triangle_network()
        result = solve_optimal_max_utilisation(net, np.zeros((3, 3)))
        assert result.is_zero
        assert result.max_utilisation == 0.0

    def test_utilisation_scales_linearly_with_demand(self):
        net = square_network(capacity=10.0)
        dm = gravity_matrix(4, seed=0, total_demand=20.0)
        u1 = solve_optimal_max_utilisation(net, dm).max_utilisation
        u2 = solve_optimal_max_utilisation(net, 2.0 * dm).max_utilisation
        assert u2 == pytest.approx(2.0 * u1, rel=1e-6)

    def test_utilisation_scales_inversely_with_capacity(self):
        dm = gravity_matrix(4, seed=1, total_demand=20.0)
        u1 = solve_optimal_max_utilisation(square_network(capacity=10.0), dm).max_utilisation
        u2 = solve_optimal_max_utilisation(square_network(capacity=20.0), dm).max_utilisation
        assert u1 == pytest.approx(2.0 * u2, rel=1e-6)

    def test_capacity_constraint_respected_in_flows(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=0)
        result = solve_optimal_max_utilisation(net, dm)
        np.testing.assert_array_less(
            result.edge_flows, net.capacities * result.max_utilisation * (1 + 1e-6)
        )

    def test_flow_conservation_in_solution(self):
        net = square_network()
        dm = gravity_matrix(4, seed=2, total_demand=10.0)
        result = solve_optimal_max_utilisation(net, dm)
        destinations = [t for t in range(4) if dm[:, t].sum() > 0]
        for flows, t in zip(result.commodity_flows, destinations):
            for v in range(4):
                if v == t:
                    continue
                outflow = flows[list(net.out_edges[v])].sum()
                inflow = flows[list(net.in_edges[v])].sum()
                assert outflow - inflow == pytest.approx(dm[v, t], abs=1e-7)


class TestFormulationEquivalence:
    """Destination aggregation == per-pair commodities (splittable MCF)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_and_demands(self, seed):
        net = random_connected_network(6, 4, seed=seed, capacity=100.0)
        dm = bimodal_matrix(6, seed=seed, low_mean=10.0, high_mean=30.0, std=3.0)
        agg = solve_optimal_max_utilisation(net, dm).max_utilisation
        pair = reference_mcf_per_pair(net, dm).max_utilisation
        assert agg == pytest.approx(pair, rel=1e-6)

    def test_abilene_bimodal(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=42)
        agg = solve_optimal_max_utilisation(net, dm).max_utilisation
        pair = reference_mcf_per_pair(net, dm).max_utilisation
        assert agg == pytest.approx(pair, rel=1e-6)

    def test_per_pair_zero_demand(self):
        assert reference_mcf_per_pair(triangle_network(), np.zeros((3, 3))).is_zero


class TestValidation:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_optimal_max_utilisation(triangle_network(), -np.ones((3, 3)))

    def test_rejects_nonzero_diagonal(self):
        dm = np.zeros((3, 3))
        dm[1, 1] = 5.0
        with pytest.raises(ValueError, match="diagonal"):
            solve_optimal_max_utilisation(triangle_network(), dm)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="nodes"):
            solve_optimal_max_utilisation(triangle_network(), np.zeros((4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_optimal_max_utilisation(triangle_network(), np.zeros((3, 4)))

    def test_infeasible_when_unreachable(self):
        net = Network(3, [(0, 1), (1, 2), (2, 1), (1, 0)])  # no path into/out of 2<->0 direct
        dm = dm_single(3, 2, 0, 1.0)
        # 2 -> 1 -> 0 exists, so this IS feasible; make a truly unreachable pair:
        net2 = Network(3, [(0, 1), (1, 0), (1, 2)])  # nothing leaves 2
        with pytest.raises(InfeasibleRoutingError):
            solve_optimal_max_utilisation(net2, dm_single(3, 2, 0, 1.0))


def assert_column_wise_equals_stacked(structure, a_eq, a_ub):
    """HiGHS's column-wise arrays are ``vstack([a_eq, a_ub]).tocsc()``'s."""
    stacked = sparse.vstack([a_eq, a_ub]).tocsc()
    for got, want in (
        (structure.indptr, stacked.indptr),
        (structure.indices, stacked.indices),
        (structure.values, stacked.data),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestVectorizedAssembly:
    """The index-arithmetic assembly matches the loop reference exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_identical_matrices(self, seed):
        net = random_connected_network(6 + seed, 4 + seed, seed=seed, capacity=50.0)
        dm = bimodal_matrix(net.num_nodes, seed=seed)
        destinations = demand_destinations(dm)
        structure = LinearProgramStructure(net, destinations)
        a_eq, a_ub, cost = reference_lp_assemble(net, destinations)
        np.testing.assert_array_equal(structure.a_eq.toarray(), a_eq.toarray())
        np.testing.assert_array_equal(structure.a_ub.toarray(), a_ub.toarray())
        np.testing.assert_array_equal(structure.cost, cost)
        assert_column_wise_equals_stacked(structure, a_eq, a_ub)

    def test_sparse_demand_subset_support(self):
        net = random_connected_network(10, 8, seed=3, capacity=50.0)
        dm = np.zeros((10, 10))
        dm[0, 7] = 5.0
        dm[2, 7] = 1.0
        dm[4, 1] = 3.0
        destinations = demand_destinations(dm)
        np.testing.assert_array_equal(destinations, [1, 7])
        structure = LinearProgramStructure(net, destinations)
        a_eq, a_ub, _ = reference_lp_assemble(net, destinations)
        np.testing.assert_array_equal(structure.a_eq.toarray(), a_eq.toarray())
        np.testing.assert_array_equal(structure.a_ub.toarray(), a_ub.toarray())
        assert_column_wise_equals_stacked(structure, a_eq, a_ub)

    def test_equality_rhs_matches_loop_order(self):
        net = random_connected_network(7, 5, seed=1, capacity=50.0)
        dm = bimodal_matrix(7, seed=1)
        destinations = [int(t) for t in demand_destinations(dm)]
        structure = LinearProgramStructure(net, destinations)
        expected = np.concatenate(
            [
                dm[np.array([v for v in range(7) if v != t]), t]
                for t in destinations
            ]
        )
        np.testing.assert_array_equal(structure.equality_rhs(dm), expected)


class TestStructureCache:
    """RHS-only re-solves through a shared structure stay exact."""

    def test_same_support_is_one_structure(self):
        cache = LinearProgramCache()
        net = abilene()
        dm1 = bimodal_matrix(net.num_nodes, seed=0)
        dm2 = bimodal_matrix(net.num_nodes, seed=1)
        with use_lp_cache(cache):
            solve_optimal_max_utilisation(net, dm1)
            solve_optimal_max_utilisation(net, dm2)
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_resolve_matches_fresh_and_per_pair_oracle(self, seed):
        """A structure-cached re-solve equals the fresh solve and the oracle."""
        rng = np.random.default_rng(seed)
        net = random_connected_network(7, 5, seed=seed, capacity=100.0)
        base = sparse_matrix(7, seed=seed, density=0.3, mean=20.0, std=4.0)
        if not np.any(base > 0.0):
            base[0, 1] = 10.0
        rescaled = np.where(base > 0.0, base * rng.uniform(0.5, 2.0, base.shape), 0.0)
        with use_lp_cache(LinearProgramCache()) as cache:
            solve_optimal_max_utilisation(net, base)  # warm the structure
            resolved = solve_optimal_max_utilisation(net, rescaled)
        assert cache.hits >= 1  # the second solve reused the structure
        fresh = reference_lp_solve(net, rescaled).max_utilisation
        oracle = reference_mcf_per_pair(net, rescaled).max_utilisation
        assert resolved.max_utilisation == pytest.approx(fresh, abs=1e-8)
        assert resolved.max_utilisation == pytest.approx(oracle, abs=1e-8)

    def test_infeasible_on_fresh_and_reused_structure(self):
        # Node 3 has no outgoing edge, so demand from 3 is unroutable; the
        # destination support {2} stays identical across both solves, so
        # the second one exercises the RHS-only re-solve error path.
        net = Network(4, [(0, 1), (1, 2), (2, 1), (1, 0), (2, 3)])
        feasible = np.zeros((4, 4))
        feasible[0, 2] = 1.0
        infeasible = np.zeros((4, 4))
        infeasible[3, 2] = 1.0
        with use_lp_cache(LinearProgramCache()) as cache:
            solve_optimal_max_utilisation(net, feasible)
            with pytest.raises(InfeasibleRoutingError):
                solve_optimal_max_utilisation(net, infeasible)
            assert cache.hits == 1  # the failing solve went through the cached structure
            # the structure stays usable after a failed solve
            result = solve_optimal_max_utilisation(net, feasible)
        assert result.max_utilisation > 0.0

    def test_shared_cache_is_the_default(self):
        net = abilene()
        dm = bimodal_matrix(net.num_nodes, seed=5)
        before = SHARED_LP_CACHE.hits + SHARED_LP_CACHE.misses
        solve_optimal_max_utilisation(net, dm)
        assert SHARED_LP_CACHE.hits + SHARED_LP_CACHE.misses == before + 1

    def test_binding_is_thread_local_and_nests(self):
        import threading

        outer, inner = LinearProgramCache(), LinearProgramCache()
        inside = threading.Event()
        seen = {}

        def worker():
            inside.wait(5.0)
            seen["worker"] = shared_lp_cache()

        thread = threading.Thread(target=worker)
        thread.start()
        with use_lp_cache(outer):
            with use_lp_cache(inner):
                inside.set()
                seen["inner"] = shared_lp_cache()
                thread.join(timeout=5.0)
            seen["outer"] = shared_lp_cache()
        assert not thread.is_alive()
        assert seen == {"worker": SHARED_LP_CACHE, "inner": inner, "outer": outer}
        assert shared_lp_cache() is SHARED_LP_CACHE

    def test_lru_eviction_of_structures(self):
        net = abilene()
        with use_lp_cache(LinearProgramCache(max_entries=2)) as cache:
            for t in (1, 2, 3):
                dm = np.zeros((net.num_nodes,) * 2)
                dm[0, t] = 1.0
                solve_optimal_max_utilisation(net, dm)
        assert len(cache) == 2
        with pytest.raises(ValueError):
            LinearProgramCache(max_entries=0)


def _delta_case(seed: int, num_removed: int, scaled: bool):
    """A random network, one of its deltas and a demand matrix."""
    rng = np.random.default_rng(seed)
    net = random_connected_network(
        int(rng.integers(5, 10)), int(rng.integers(2, 6)), seed=seed, capacity=100.0
    )
    links = sorted(undirected_links(net))
    picks = rng.choice(len(links), size=min(num_removed, len(links) - 1), replace=False)
    scale = tuple(rng.uniform(0.3, 2.0, net.num_edges)) if scaled else None
    delta = NetworkDelta(removed_links=[links[i] for i in picks], capacity_scale=scale)
    dm = sparse_matrix(net.num_nodes, seed=seed, density=0.4, mean=20.0, std=4.0)
    if not np.any(dm > 0.0):
        dm[0, 1] = 10.0
    return net, delta, dm


def count_highs_runs(monkeypatch, basis_status=None) -> list:
    """Record every HiGHS ``run()`` of the direct LP path in the returned list.

    ``basis_status`` makes ``setBasis`` report that status after loading.
    """
    runs = []

    class CountingHighs(lp._highs._Highs):
        def run(self):
            runs.append(self.getNumCol())
            return super().run()

        def setBasis(self, *args):
            status = super().setBasis(*args)
            return status if basis_status is None else basis_status

    monkeypatch.setattr(lp._highs, "_Highs", CountingHighs)
    return runs


def _assert_same_routing(a, b):
    assert a.max_utilisation == b.max_utilisation
    assert a.edge_flows.tobytes() == b.edge_flows.tobytes()
    assert a.commodity_flows.tobytes() == b.commodity_flows.tobytes()


class TestVariantSolves:
    """Dynamics variants solve on their base's structure, hot-started."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_removed=st.integers(0, 2),
        scaled=st.booleans(),
        base_first=st.booleans(),
    )
    def test_variant_optimum_matches_the_reference_on_the_variant(
        self, seed, num_removed, scaled, base_first
    ):
        net, delta, dm = _delta_case(seed, num_removed, scaled or num_removed == 0)
        variant = delta.apply(net)
        try:
            want = reference_lp_solve(variant, dm)
        except InfeasibleRoutingError:
            want = None
        with use_lp_cache(LinearProgramCache()) as cache:
            if base_first:
                solve_optimal_max_utilisation(net, dm)
            if want is None:
                with pytest.raises(InfeasibleRoutingError):
                    solve_optimal_max_utilisation(variant, dm)
                return
            got = solve_optimal_max_utilisation(variant, dm)
        assert len(cache) == 1  # the base's structure; the variant built none
        assert got.max_utilisation == pytest.approx(want.max_utilisation, rel=1e-9, abs=1e-12)
        # Flows come back in the variant's edge order and route the demand.
        assert got.edge_flows.shape == (variant.num_edges,)
        np.testing.assert_array_less(
            got.edge_flows, variant.capacities * got.max_utilisation * (1 + 1e-9) + 1e-9
        )
        for flows, t in zip(got.commodity_flows, demand_destinations(dm)):
            for v in range(variant.num_nodes):
                if v != int(t):
                    outflow = flows[list(variant.out_edges[v])].sum()
                    inflow = flows[list(variant.in_edges[v])].sum()
                    assert outflow - inflow == pytest.approx(dm[v, t], abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_order_does_not_change_any_bit(self, seed):
        net, delta, dm = _delta_case(seed, num_removed=1, scaled=seed == 2)
        other = bimodal_matrix(net.num_nodes, seed=seed + 100)
        variant = delta.apply(net)
        with use_lp_cache(LinearProgramCache()):
            solve_optimal_max_utilisation(net, dm)
            base_after = solve_optimal_max_utilisation(net, other)
            # The solver last held another DM's basis: the start must not be it.
            variant_after = solve_optimal_max_utilisation(variant, dm)
        with use_lp_cache(LinearProgramCache()):
            variant_first = solve_optimal_max_utilisation(variant, dm)
            # A base solve after a variant solve on the same solver model.
            base_later = solve_optimal_max_utilisation(net, other)
        _assert_same_routing(variant_first, variant_after)
        _assert_same_routing(base_later, base_after)

    def test_infeasible_variant_on_a_memo_miss_and_a_memo_hit(self):
        # A 4-cycle with a pendant node 4: losing link (3, 4) cuts node
        # 4's demand off, while the base stays feasible.
        net = Network.from_undirected(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)], 10.0)
        variant = NetworkDelta(removed_links=((3, 4),)).apply(net)
        dm = dm_single(5, 4, 1, 5.0)
        with use_lp_cache(LinearProgramCache()):  # miss: the base solves first
            with pytest.raises(InfeasibleRoutingError, match="~dyn"):
                solve_optimal_max_utilisation(variant, dm)
        with use_lp_cache(LinearProgramCache()) as cache:  # hit: the base is memoised
            base = solve_optimal_max_utilisation(net, dm)
            with pytest.raises(InfeasibleRoutingError, match="~dyn"):
                solve_optimal_max_utilisation(variant, dm)
            assert cache.hits == 1
            # The structure stays usable for base and variant solves alike.
            _assert_same_routing(solve_optimal_max_utilisation(net, dm), base)
            reachable = solve_optimal_max_utilisation(variant, dm_single(5, 0, 2, 5.0))
            assert reachable.max_utilisation == pytest.approx(0.25)

    @pytest.mark.skipif(not direct_solver_available(), reason="direct HiGHS bindings unavailable")
    def test_base_solved_for_a_variant_is_not_solved_again(self, monkeypatch):
        net, delta, dm = _delta_case(1, num_removed=1, scaled=False)
        with use_lp_cache(LinearProgramCache()):
            fresh = solve_optimal_max_utilisation(net, dm)
        runs = count_highs_runs(monkeypatch)
        with use_lp_cache(LinearProgramCache()):
            solve_optimal_max_utilisation(delta.apply(net), dm)
            assert len(runs) == 2  # the base, then the variant from its basis
            base = solve_optimal_max_utilisation(net, dm)
        assert len(runs) == 2  # the memoised result: no third LP
        _assert_same_routing(base, fresh)
        assert not base.commodity_flows.flags.writeable  # shared, so read-only

    @pytest.mark.skipif(not direct_solver_available(), reason="direct HiGHS bindings unavailable")
    def test_memo_evicts_least_recent_without_changing_any_bit(self, monkeypatch):
        net = abilene()
        dms = [bimodal_matrix(net.num_nodes, seed=s) for s in range(BASE_MEMO_ENTRIES + 1)]
        with use_lp_cache(LinearProgramCache()):
            fresh = solve_optimal_max_utilisation(net, dms[0])
        runs = count_highs_runs(monkeypatch)
        with use_lp_cache(LinearProgramCache()):
            first = [solve_optimal_max_utilisation(net, dm) for dm in dms[:-1]]
            assert solve_optimal_max_utilisation(net, dms[0]) is first[0]  # a memo hit
            assert len(runs) == BASE_MEMO_ENTRIES
            solve_optimal_max_utilisation(net, dms[-1])  # evicts dms[1], not dms[0]
            solve_optimal_max_utilisation(net, dms[0])
            again = solve_optimal_max_utilisation(net, dms[1])
        assert len(runs) == BASE_MEMO_ENTRIES + 2
        _assert_same_routing(first[0], fresh)
        _assert_same_routing(again, first[1])

    @pytest.mark.skipif(not direct_solver_available(), reason="direct HiGHS bindings unavailable")
    def test_rejected_basis_warns_and_still_solves(self, monkeypatch):
        net, delta, dm = _delta_case(2, num_removed=1, scaled=True)
        variant = delta.apply(net)
        count_highs_runs(monkeypatch, basis_status=lp._highs.HighsStatus.kError)
        with use_lp_cache(LinearProgramCache()):
            with pytest.warns(RuntimeWarning, match="rejected the base's optimal basis"):
                got = solve_optimal_max_utilisation(variant, dm)
        want = reference_lp_solve(variant, dm)
        assert got.max_utilisation == pytest.approx(want.max_utilisation, rel=1e-9)

    def test_infeasible_base_makes_the_variant_infeasible(self):
        net = Network(4, [(0, 1), (1, 2), (2, 1), (1, 0), (2, 3)])  # nothing leaves 3
        variant = NetworkDelta(removed_links=((0, 1),)).apply(net)
        with use_lp_cache(LinearProgramCache()):
            with pytest.raises(InfeasibleRoutingError, match="~dyn"):
                solve_optimal_max_utilisation(variant, dm_single(4, 3, 2, 1.0))


class TestCache:
    def test_cache_hits_do_not_resolve(self):
        cache = OptimalUtilisationCache()
        net = triangle_network()
        dm = dm_single(3, 0, 2, 4.0)
        first = cache.optimal_max_utilisation(net, dm)
        assert len(cache) == 1
        second = cache.optimal_max_utilisation(net, dm)
        assert first == second
        assert len(cache) == 1

    def test_cache_distinguishes_networks(self):
        cache = OptimalUtilisationCache()
        dm = dm_single(3, 0, 2, 4.0)
        cache.optimal_max_utilisation(triangle_network(10.0), dm)
        cache.optimal_max_utilisation(triangle_network(20.0), dm)
        assert len(cache) == 2

    def test_cache_eviction(self):
        cache = OptimalUtilisationCache(max_entries=2)
        net = triangle_network()
        for d in (1.0, 2.0, 3.0):
            cache.optimal_max_utilisation(net, dm_single(3, 0, 2, d))
        assert len(cache) == 2

    def test_cache_validates_max_entries(self):
        with pytest.raises(ValueError):
            OptimalUtilisationCache(max_entries=0)

    def test_eviction_is_lru_not_fifo(self):
        """Hits refresh recency: re-reading an old entry protects it.

        The pre-fix FIFO (``pop(next(iter(...)))``) evicted the *oldest
        insertion* regardless of use, so a cyclical sequence's working set
        could be evicted by one-off matrices even while being hit on every
        step.
        """
        cache = OptimalUtilisationCache(max_entries=2)
        net = triangle_network()
        dm_a, dm_b, dm_c = (dm_single(3, 0, 2, d) for d in (1.0, 2.0, 3.0))
        cache.optimal_max_utilisation(net, dm_a)
        cache.optimal_max_utilisation(net, dm_b)
        cache.optimal_max_utilisation(net, dm_a)  # refresh A's recency
        cache.optimal_max_utilisation(net, dm_c)  # evicts B, not A
        misses_before = cache.misses
        cache.optimal_max_utilisation(net, dm_a)
        assert cache.misses == misses_before, "A was evicted despite being most-recent"
        cache.optimal_max_utilisation(net, dm_b)
        assert cache.misses == misses_before + 1, "B should have been the LRU victim"


class TestFingerprintKeys:
    def test_hash_collision_does_not_alias_networks(self):
        """Same ``hash()`` on distinct networks must not return a stale optimum.

        The pre-fix key was ``hash(network)``: any two networks whose
        hashes collided silently shared cache entries, so the second lookup
        returned the first network's optimum.  Structural fingerprints
        cannot collide.
        """

        class CollidingNetwork(Network):
            def __hash__(self):
                return 1234

        slim = CollidingNetwork(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)], 10.0)
        fat = CollidingNetwork(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)], 20.0)
        assert hash(slim) == hash(fat)
        assert network_fingerprint(slim) != network_fingerprint(fat)
        cache = OptimalUtilisationCache()
        dm = dm_single(3, 0, 2, 10.0)
        u_slim = cache.optimal_max_utilisation(slim, dm)
        u_fat = cache.optimal_max_utilisation(fat, dm)
        assert len(cache) == 2
        assert u_slim == pytest.approx(2.0 * u_fat, rel=1e-6)

    def test_fingerprint_sensitive_to_structure(self):
        a = triangle_network()
        assert network_fingerprint(a) == network_fingerprint(triangle_network())
        assert network_fingerprint(a) != network_fingerprint(triangle_network(20.0))
        assert network_fingerprint(a) != network_fingerprint(line_network(3))
