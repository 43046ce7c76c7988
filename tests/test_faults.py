"""The deterministic fault-injection framework and its (site x kind) matrix.

Framework guarantees first: a :class:`FaultPlan` is plain validated data,
arming is process-wide and environment-inherited, and schedules / seeded
probabilities reproduce the same fire pattern on every run — chaos tests
are as deterministic as the rest of the suite.

Then the acceptance matrix: for each registered fault site, an injected
fault must end in either a retried result identical to the clean run or
the documented typed error — never a hang (every potentially-blocking call
sits behind a watchdog join), never a silent wrong answer.  The
``service.tick`` column lives with the server fixtures in
``tests/test_resilience.py``; the crash kind is exercised through real
subprocesses, asserting the dedicated exit status.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.api.store import ResultStore
from repro.engine.backend import (
    SPLU_BREAKER,
    FactorisationCache,
    default_backend,
    use_factorisation_cache,
)
from repro.engine.simulator_batch import destination_link_loads
from repro.faults import (
    CRASH_EXIT_CODE,
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_counts,
    fault_point,
    inject,
)
from repro.flows.lp import (
    DIRECT_SOLVER_BREAKER,
    LinearProgramCache,
    direct_solver_available,
    solve_optimal_max_utilisation,
    use_lp_cache,
)
from repro.graphs import abilene
from repro.graphs.dynamics import NetworkDelta
from repro.traffic import bimodal_matrix
from tests.helpers import triangle_network
from tests.test_api_sweep import assert_results_equal, strategies_spec, sub_spec


@pytest.fixture(autouse=True)
def _fresh_breakers():
    """Injected failures must not leak open breakers into other tests."""
    DIRECT_SOLVER_BREAKER.reset()
    SPLU_BREAKER.reset()
    yield
    DIRECT_SOLVER_BREAKER.reset()
    SPLU_BREAKER.reset()


def finish_within(fn, timeout=120.0):
    """Run ``fn`` on a thread and assert it finishes — the no-hang oracle."""
    box = {}

    def work():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call hung past {timeout}s"
    if "error" in box:
        raise box["error"]
    return box.get("result")


class TestFaultRule:
    def test_round_trips_through_dict(self):
        rule = FaultRule(kind="error", schedule=(0, 3), seed=7, limit=2)
        assert FaultRule.from_dict(rule.to_dict()) == rule
        probed = FaultRule(kind="delay", probability=0.25, delay_s=0.2)
        assert FaultRule.from_dict(probed.to_dict()) == probed

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"kind": "error", "probability": 0.5, "when": "now"})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode", "probability": 0.5},
            {"kind": "error"},  # neither selector
            {"kind": "error", "probability": 0.5, "schedule": (0,)},  # both
            {"kind": "error", "probability": 0.0},
            {"kind": "error", "probability": 1.5},
            {"kind": "error", "schedule": (-1,)},
            {"kind": "error", "schedule": (0,), "limit": 0},
            {"kind": "delay", "schedule": (0,), "delay_s": -1.0},
        ],
    )
    def test_bad_rules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(**kwargs)


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.single("lp.sovle", kind="error", probability=0.5)

    def test_test_prefix_always_accepted(self):
        plan = FaultPlan.single("test.anything", kind="error", schedule=(0,))
        assert "test.anything" in plan.rules

    def test_json_round_trip(self):
        plan = FaultPlan(
            {
                "lp.solve": FaultRule(kind="error", probability=0.1, seed=3),
                "store.put": FaultRule(kind="crash", schedule=(2,)),
            }
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_plan_must_be_an_object(self):
        with pytest.raises(ValueError, match="object"):
            FaultPlan.from_json("[1, 2]")


class TestArming:
    def test_disarmed_is_inert(self):
        assert active_plan() is None
        assert fault_point("lp.solve") is None
        assert fault_counts() == {}

    def test_inject_restores_plan_and_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "sentinel")
        plan = FaultPlan.single("test.site", kind="error", schedule=(0,))
        with inject(plan):
            assert active_plan() == plan
            assert os.environ[FAULT_PLAN_ENV] == plan.to_json()
        assert active_plan() is None
        assert os.environ[FAULT_PLAN_ENV] == "sentinel"

    def test_armed_fault_point_rejects_unknown_sites(self):
        with inject(FaultPlan.single("test.site", kind="error", schedule=(0,))):
            with pytest.raises(ValueError, match="unknown fault site"):
                fault_point("not.a.site")

    def test_schedule_fires_exactly_the_named_calls(self):
        with inject(FaultPlan.single("test.site", kind="error", schedule=(1, 3))):
            fired = []
            for index in range(6):
                try:
                    fault_point("test.site")
                    fired.append(False)
                except FaultInjected as exc:
                    assert exc.site == "test.site"
                    fired.append(True)
            assert fired == [False, True, False, True, False, False]
            assert fault_counts() == {"test.site": (6, 2)}

    def test_probability_pattern_is_seed_deterministic(self):
        def pattern(seed):
            fires = []
            with inject(
                FaultPlan.single("test.site", kind="error", probability=0.5, seed=seed)
            ):
                for _ in range(64):
                    try:
                        fault_point("test.site")
                        fires.append(False)
                    except FaultInjected:
                        fires.append(True)
            return fires

        assert pattern(11) == pattern(11)  # re-arming replays the sequence
        assert pattern(11) != pattern(12)
        assert any(pattern(11)) and not all(pattern(11))

    def test_limit_caps_total_fires(self):
        with inject(
            FaultPlan.single("test.site", kind="error", probability=1.0, limit=2)
        ):
            fires = 0
            for _ in range(5):
                try:
                    fault_point("test.site")
                except FaultInjected:
                    fires += 1
            assert fires == 2

    def test_delay_kind_sleeps(self):
        with inject(
            FaultPlan.single("test.site", kind="delay", schedule=(0,), delay_s=0.05)
        ):
            start = time.perf_counter()
            fault_point("test.site")
            assert time.perf_counter() - start >= 0.04

    def test_env_arms_subprocess_and_crash_uses_dedicated_exit_code(self):
        driver = (
            "from repro.faults import fault_point\n"
            "fault_point('test.boom')\n"
            "print('survived')\n"
        )
        plan = FaultPlan.single("test.boom", kind="crash", schedule=(0,))
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            env={**os.environ, FAULT_PLAN_ENV: plan.to_json()},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert "survived" not in proc.stdout

    def test_invalid_env_plan_fails_loudly_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.faults"],
            env={**os.environ, FAULT_PLAN_ENV: "{nope"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert FAULT_PLAN_ENV in proc.stderr


class TestFaultMatrix:
    """error faults per registered site: typed error or identical retry."""

    def test_every_registered_site_is_known(self):
        # The sites the hardening threads through the stack; adding one
        # here without a matrix test below (or in test_resilience.py for
        # service.tick) should be a conscious decision.
        assert FAULT_SITES == (
            "lp.solve",
            "backend.factorise",
            "store.put",
            "service.tick",
        )

    @pytest.mark.skipif(
        not direct_solver_available(), reason="direct HiGHS bindings unavailable"
    )
    def test_lp_solve_error_falls_back_to_identical_optimum(self):
        net = abilene()
        demand = bimodal_matrix(net.num_nodes, seed=3)
        clean = solve_optimal_max_utilisation(net, demand).max_utilisation
        with inject(FaultPlan.single("lp.solve", kind="error", probability=1.0)):
            with pytest.warns(RuntimeWarning, match="falling back to linprog"):
                faulted = finish_within(
                    lambda: solve_optimal_max_utilisation(net, demand)
                )
        assert faulted.max_utilisation == pytest.approx(clean, abs=1e-8)

    @pytest.mark.skipif(
        not direct_solver_available(), reason="direct HiGHS bindings unavailable"
    )
    def test_lp_solve_error_on_a_variant_falls_back_with_the_variants_bounds(self):
        # linprog solves the variant on its base's structure: removed links
        # as zero column bounds, scaled capacities in the capacity rows.
        net = abilene()
        scale = np.linspace(0.5, 1.5, net.num_edges)
        variant = NetworkDelta(removed_links=((0, 1),), capacity_scale=scale).apply(net)
        demand = bimodal_matrix(net.num_nodes, seed=3)
        with use_lp_cache(LinearProgramCache()):
            clean = solve_optimal_max_utilisation(variant, demand)
        cache = LinearProgramCache()

        def solve(network):  # the cache binding is per thread
            with use_lp_cache(cache):
                return solve_optimal_max_utilisation(network, demand)

        solve(net)  # memoises the base's basis
        with inject(FaultPlan.single("lp.solve", kind="error", probability=1.0)):
            with pytest.warns(RuntimeWarning, match="falling back to linprog"):
                faulted = finish_within(lambda: solve(variant))
        assert cache.misses == 1 and cache.hits == 1  # no structure of its own
        assert faulted.max_utilisation == pytest.approx(clean.max_utilisation, abs=1e-8)
        assert faulted.edge_flows.shape == clean.edge_flows.shape == (variant.num_edges,)
        assert faulted.commodity_flows.shape == clean.commodity_flows.shape
        np.testing.assert_array_less(
            faulted.edge_flows, variant.capacities * faulted.max_utilisation * (1 + 1e-8)
        )
        # One failure leaves the breaker closed, as for a base solve.
        assert DIRECT_SOLVER_BREAKER.state == "closed"

    @pytest.mark.skipif(
        not direct_solver_available(), reason="direct HiGHS bindings unavailable"
    )
    def test_lp_breaker_opens_after_consecutive_failures(self):
        net = abilene()
        demand = bimodal_matrix(net.num_nodes, seed=4)
        clean = solve_optimal_max_utilisation(net, demand).max_utilisation
        with inject(FaultPlan.single("lp.solve", kind="error", probability=1.0)):
            for _ in range(DIRECT_SOLVER_BREAKER.failure_threshold):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    solve_optimal_max_utilisation(net, demand)
            assert DIRECT_SOLVER_BREAKER.state == "open"
            # Open breaker: straight to linprog, no direct attempt, no fault.
            calls_before = fault_counts()["lp.solve"][0]
            tripped = solve_optimal_max_utilisation(net, demand)
            assert fault_counts()["lp.solve"][0] == calls_before
        assert tripped.max_utilisation == pytest.approx(clean, abs=1e-8)

    def test_backend_factorise_error_falls_back_to_dense(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        table[1, net.edge_index[(0, 1)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 1] = 4.0
        with default_backend("dense"):
            dense = destination_link_loads(net, table, demand)

        def solve_sparse_uncached():
            # A fresh factorisation cache and the sparse backend, bound
            # inside the watchdog thread (bindings are per-thread): earlier
            # tests may have factorised this triangle, and a cache hit never
            # reaches the fault site.
            with use_factorisation_cache(FactorisationCache()), default_backend("sparse"):
                return destination_link_loads(net, table, demand)

        with inject(
            FaultPlan.single("backend.factorise", kind="error", probability=1.0)
        ):
            with pytest.warns(RuntimeWarning, match="falling back to dense"):
                faulted = finish_within(solve_sparse_uncached)
        np.testing.assert_allclose(faulted, dense, atol=1e-8)

    def test_splu_breaker_opens_and_routes_around_the_fault(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[1, net.edge_index[(0, 1)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 1] = 4.0
        with default_backend("dense"):
            dense = destination_link_loads(net, table, demand)
        with use_factorisation_cache(FactorisationCache()), default_backend("sparse"), inject(
            FaultPlan.single("backend.factorise", kind="error", probability=1.0)
        ):
            for _ in range(SPLU_BREAKER.failure_threshold):
                with pytest.warns(RuntimeWarning, match="falling back"):
                    destination_link_loads(net, table, demand)
            assert SPLU_BREAKER.state == "open"
            calls_before = fault_counts()["backend.factorise"][0]
            tripped = destination_link_loads(net, table, demand)
            assert fault_counts()["backend.factorise"][0] == calls_before
        np.testing.assert_allclose(tripped, dense, atol=1e-8)

    def test_store_put_error_is_typed_then_retry_lands(self, tmp_path):
        spec = sub_spec()
        result = api.run(spec)
        store = ResultStore(tmp_path / "store")
        with inject(FaultPlan.single("store.put", kind="error", schedule=(0,))):
            with pytest.raises(FaultInjected):
                store.put(spec, result)
            assert store.hashes() == []  # the failed write left nothing
            store.put(spec, result)  # retry under the same plan lands
        assert_results_equal(store.get(spec), result)



class TestCrashRecovery:
    def test_sweep_crash_inside_store_put_resumes_bit_identical(self, tmp_path):
        """A sweep killed in its second store write leaves no partial entry.

        Seed 0's entry is complete, seed 1's temp file is gone, and a
        re-run executes only seed 1 and matches ``api.run(spec)``.
        """
        spec = strategies_spec(seeds=(0, 1))
        target = tmp_path / "scenario.json"
        target.write_text(spec.to_json())
        store_dir = tmp_path / "store"
        argv = [
            sys.executable,
            "-m",
            "repro.experiments.runner",
            "sweep",
            str(target),
            "--store",
            str(store_dir),
        ]
        clean_env = {k: v for k, v in os.environ.items() if k != FAULT_PLAN_ENV}
        plan = FaultPlan.single("store.put", kind="crash", schedule=(1,))
        crashed = subprocess.run(
            argv,
            env={**clean_env, FAULT_PLAN_ENV: plan.to_json()},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        store = ResultStore(store_dir)
        first = sub_spec(0)
        assert store.hashes() == [first.spec_hash()]
        assert_results_equal(store.get(first), api.run(first))
        stored_files = [p for p in store_dir.rglob("*") if p.is_file()]
        assert stored_files == [store.path_for(first)]  # no .tmp-* or partial
        resumed = subprocess.run(
            argv, env=clean_env, capture_output=True, text=True, timeout=300
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "2 total, 1 cached, 1 executed" in resumed.stdout
        cached = api.sweep(spec, store=store)
        assert cached.executions == 0
        assert_results_equal(cached.result, api.run(spec))
