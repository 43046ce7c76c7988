"""The persistent routing service: engine, coalescing batcher, HTTP, client."""

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.api.client import Client, ServiceError
from repro.api.runner import _SeedRun, _strategy_factory
from repro.api.service import RouteRequest, ServiceSpec
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.engine.evaluate import batch_evaluate_routing
from repro.faults import FaultPlan, active_plan, inject
from repro.service import server as server_module
from repro.service.engine import ServiceEngine
from repro.service.server import ServiceClosedError, ServiceServer, serve


def _scenario(name="service-test", strategies=("shortest_path", "ecmp")):
    return ScenarioSpec(
        name=name,
        topology={"name": "abilene"},
        traffic={
            "model": "bimodal",
            "length": 8,
            "cycle_length": 4,
            "num_train": 1,
            "num_test": 1,
        },
        routing={"strategies": list(strategies)},
        training={"preset": "quick"},
    )


@pytest.fixture(scope="module")
def server():
    with serve(ServiceSpec(scenario=_scenario())) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return Client(host=server.host, port=server.port)


@pytest.fixture(scope="module")
def offline(server):
    """The same scenario's test demand matrices + offline reference ratios."""
    scenario = server.spec.scenario
    run = _SeedRun(scenario, scenario.evaluation.seeds[0], echo=False)
    memory = run.scale.memory_length
    demands = [
        sequence.matrix(step)
        for sequence in run.test_seqs
        for step in range(memory, len(sequence))
    ]
    ratios = {
        sspec.key: batch_evaluate_routing(
            _strategy_factory(sspec),
            run.test_graphs[0],
            run.test_seqs,
            memory_length=memory,
            backend=scenario.evaluation.backend,
        ).ratios
        for sspec in scenario.routing.strategies
    }
    return demands, ratios


class TestServedNumbers:
    def test_health_names_the_deployment(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["scenario"] == "service-test"
        assert health["labels"] == ["shortest_path", "ecmp"]
        assert health["evaluable_labels"] == ["shortest_path", "ecmp"]

    def test_evaluate_matches_offline_batch(self, client, offline):
        demands, reference = offline
        for k, demand in enumerate(demands):
            response = client.evaluate(demand)
            for label, ratios in reference.items():
                assert response.entry(label).ratio == pytest.approx(
                    ratios[k], abs=1e-8
                )

    def test_zero_demand_has_defined_ratio(self, client):
        response = client.evaluate(np.zeros((11, 11)))
        for entry in response.entries:
            assert entry.ratio == 1.0
            assert entry.optimal == 0.0

    def test_label_filter_and_request_id_echo(self, client, offline):
        demands, _ = offline
        response = client.evaluate(demands[0], labels=("ecmp",), request_id="tag-7")
        assert [entry.label for entry in response.entries] == ["ecmp"]
        assert response.request_id == "tag-7"

    def test_stats_reports_cache_counters(self, client):
        stats = client.stats()
        assert stats["caches"]["optima"]["misses"] >= 1
        assert stats["requests"] >= 1 and stats["ticks"] >= 1


class TestCoalescing:
    def _fire(self, server, requests):
        """Submit requests from concurrent threads; return responses."""
        responses = [None] * len(requests)
        barrier = threading.Barrier(len(requests), timeout=10.0)

        def submit(i):
            barrier.wait()
            responses[i] = server.evaluate(requests[i])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(requests))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        return responses

    def test_identical_requests_cost_one_lp_solve(self, server):
        # A demand matrix nothing warmed: the only optimum solve this test
        # should trigger.  Support is dense so it can't collide with the
        # test sequences.
        demand = np.abs(np.random.default_rng(1234).normal(size=(11, 11))) + 0.5
        np.fill_diagonal(demand, 0.0)
        cache = server.engine.rewarder.cache
        misses_before = cache.misses
        # The first tick is held, so the submissions behind it queue up and
        # coalesce into the next one.
        held = FaultPlan.single(
            "service.tick", kind="delay", delay_s=0.2, probability=1.0, limit=1
        )
        with inject(held):
            responses = self._fire(server, [RouteRequest(demand=demand)] * 6)
        assert all(r is not None for r in responses)
        # One solve for K concurrent identical matrices; everyone coalesced.
        assert cache.misses == misses_before + 1
        assert max(r.batched for r in responses) >= 2
        first = responses[0].ratios
        assert all(r.ratios == first for r in responses)

    def test_distinct_requests_answered_independently(self, server):
        rng = np.random.default_rng(99)
        demands = []
        for _ in range(3):
            demand = np.abs(rng.normal(size=(11, 11))) + 0.25
            np.fill_diagonal(demand, 0.0)
            demands.append(demand)
        responses = self._fire(
            server, [RouteRequest(demand=demand) for demand in demands]
        )
        # Each got its own answer (distinct matrices -> distinct optima with
        # probability 1), none blocked by the others' solves.
        ratios = [r.entry("ecmp").ratio for r in responses]
        optima = {r.entry("ecmp").optimal for r in responses}
        assert all(np.isfinite(ratios))
        assert len(optima) == len(demands)

    def test_idle_request_starts_its_tick_without_sleeping(self, client, monkeypatch):
        # Coalescing is driven by the queue: a lone request on an idle
        # server is taken into a tick at once, with no wait for companions.
        sleeps = []

        class CountingTime:
            def __getattr__(self, name):
                return getattr(time, name)

            def sleep(self, seconds):
                sleeps.append(seconds)
                time.sleep(seconds)

        assert active_plan() is None
        monkeypatch.setattr(server_module, "time", CountingTime())
        response = client.evaluate(np.zeros((11, 11)))
        assert response.batched == 1
        assert sleeps == []


class TestErrors:
    def test_wrong_shape_is_400(self, client):
        with pytest.raises(ServiceError, match="shape") as excinfo:
            client.evaluate(np.ones((4, 4)))
        assert excinfo.value.status == 400

    def test_unknown_label_is_400(self, client):
        with pytest.raises(ServiceError, match="unknown routing label") as excinfo:
            client.evaluate(np.zeros((11, 11)), labels=("mlp",))
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unreachable_service_is_status_zero(self):
        dead = Client(port=1, timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            dead.health()
        assert excinfo.value.status == 0

    def test_iterative_policy_rejected_per_request(self):
        engine = ServiceEngine(ServiceSpec(scenario=_scenario(name="iter-test")))
        engine.entries["fake_iterative"] = ("policy", (object(), True))
        outcome = engine.evaluate_batch(
            [RouteRequest(demand=np.zeros((11, 11)), labels=("fake_iterative",))]
        )[0]
        assert isinstance(outcome, SpecValidationError)
        assert "iterative" in str(outcome)
        assert engine.evaluable_labels() == ["shortest_path", "ecmp"]


class TestLifecycle:
    def test_run_endpoint_matches_offline(self):
        scenario = _scenario(name="run-test")
        with serve(ServiceSpec(scenario=scenario)) as running:
            served = Client(host=running.host, port=running.port).run()
        offline = api.run(scenario)
        assert [label for label, _ in served.rows()] == [
            label for label, _ in offline.rows()
        ]
        assert [mean for _, mean in served.rows()] == pytest.approx(
            [mean for _, mean in offline.rows()], abs=1e-8
        )

    def test_reload_swaps_deployment_atomically(self):
        with serve(ServiceSpec(scenario=_scenario(name="reload-a"))) as running:
            client = Client(host=running.host, port=running.port)
            before = client.evaluate(np.zeros((11, 11)))
            assert {e.label for e in before.entries} == {"shortest_path", "ecmp"}
            info = client.reload(_scenario(name="reload-b", strategies=("ecmp",)))
            assert info["reloaded"] and info["scenario"] == "reload-b"
            after = client.evaluate(np.zeros((11, 11)))
            assert {e.label for e in after.entries} == {"ecmp"}
            # Same socket throughout: the client never reconnected elsewhere.
            assert client.health()["scenario"] == "reload-b"

    def test_closed_service_refuses_submissions(self):
        running = ServiceServer(ServiceSpec(scenario=_scenario(name="close-test")))
        running.close()
        with pytest.raises(ServiceClosedError):
            running.evaluate(RouteRequest(demand=np.zeros((11, 11))))
        running.close()  # idempotent

    def test_serve_accepts_scenario_mapping(self):
        with serve(_scenario(name="mapping-test").to_dict()) as running:
            assert running.engine.labels() == ["shortest_path", "ecmp"]

    def test_pool_topologies_rejected(self):
        scenario = _scenario(name="pool-test").with_updates(
            {
                "topology.name": "modification_pool",
                "topology.params": {"num_train": 2, "num_test": 2},
            }
        )
        with pytest.raises(SpecValidationError, match="single-topology"):
            ServiceEngine(ServiceSpec(scenario=scenario))


def _policy_scenario(name="policy-service-test"):
    return ScenarioSpec(
        name=name,
        topology={"name": "abilene"},
        traffic={
            "model": "bimodal",
            "length": 8,
            "cycle_length": 4,
            "num_train": 1,
            "num_test": 1,
        },
        routing={"policies": ["mlp"], "strategies": ["shortest_path"]},
        training={"preset": "quick", "overrides": {"total_timesteps": 64}},
    )


class TestPolicyServing:
    @pytest.fixture(scope="class")
    def policy_server(self):
        with serve(ServiceSpec(scenario=_policy_scenario())) as running:
            yield running

    def test_policy_answers_deterministically(self, policy_server):
        client = Client(host=policy_server.host, port=policy_server.port)
        demand = np.abs(np.random.default_rng(7).normal(size=(11, 11)))
        np.fill_diagonal(demand, 0.0)
        first = client.evaluate(demand, labels=("mlp",))
        second = client.evaluate(demand, labels=("mlp",))
        assert first.entry("mlp").ratio >= 1.0 - 1e-9
        assert first.entry("mlp").ratio == second.entry("mlp").ratio

    def test_history_must_match_memory_length(self, policy_server):
        client = Client(host=policy_server.host, port=policy_server.port)
        demand = np.zeros((11, 11))
        with pytest.raises(ServiceError, match="memory_length") as excinfo:
            client.evaluate(demand, history=np.zeros((1, 11, 11)), labels=("mlp",))
        assert excinfo.value.status == 400

    def test_history_steers_the_policy_observation(self, policy_server):
        engine = policy_server.engine
        memory = engine.memory_length
        demand = np.abs(np.random.default_rng(11).normal(size=(11, 11)))
        np.fill_diagonal(demand, 0.0)
        history = np.abs(np.random.default_rng(12).normal(size=(memory, 11, 11)))
        with_history = engine.evaluate_batch(
            [RouteRequest(demand=demand, history=history, labels=("mlp",))]
        )[0]
        without = engine.evaluate_batch(
            [RouteRequest(demand=demand, labels=("mlp",))]
        )[0]
        assert not isinstance(with_history, Exception)
        assert not isinstance(without, Exception)
        # Both are valid answers for the same matrix; the observation
        # differed, so the policy was actually shown the history.
        assert with_history[0].optimal == pytest.approx(without[0].optimal, abs=1e-12)

    def test_tick_answers_each_request_like_a_tick_of_one(self, policy_server):
        engine = policy_server.engine
        memory = engine.memory_length
        rng = np.random.default_rng(21)
        requests = []
        for k in range(5):
            demand = np.abs(rng.normal(size=(11, 11)))
            np.fill_diagonal(demand, 0.0)
            history = np.abs(rng.normal(size=(memory, 11, 11))) if k % 2 else None
            requests.append(RouteRequest(demand=demand, history=history))
        # A wrong-length history fails only its own request.
        requests.insert(2, RouteRequest(demand=requests[0].demand, history=np.zeros((1, 11, 11))))
        tick = engine.evaluate_batch(requests)
        alone = [engine.evaluate_batch([request])[0] for request in requests]
        assert isinstance(tick[2], SpecValidationError)
        assert isinstance(alone[2], SpecValidationError)
        for together, single in zip(tick[:2] + tick[3:], alone[:2] + alone[3:]):
            assert [entry.label for entry in together] == ["mlp", "shortest_path"]
            # Batch-invariant forwards: tick-mates never change an answer.
            assert together == single

    def test_non_finite_action_fails_only_its_request(self, policy_server):
        from repro.envs.reward import NonFiniteActionError

        engine = policy_server.engine
        policy, iterative = engine.entries["mlp"][1]

        class PoisonedPolicy:
            """Emits a NaN weight for observations with a nonzero history."""

            def act_batch(self, observations, rng, deterministic=False):
                actions, log_probs, values = policy.act_batch(observations, rng, deterministic)
                for action, observation in zip(actions, observations):
                    if observation.history.any():
                        action[0] = np.nan
                return actions, log_probs, values

        demand = np.ones((11, 11))
        np.fill_diagonal(demand, 0.0)
        poisoned = np.ones((engine.memory_length, 11, 11))
        requests = [
            RouteRequest(demand=demand, labels=("mlp",)),
            RouteRequest(demand=demand, history=poisoned, labels=("mlp",)),
            RouteRequest(demand=demand, labels=("mlp",)),
        ]
        expected = engine.evaluate_batch(requests[:1])[0]
        engine.entries["mlp"] = ("policy", (PoisonedPolicy(), iterative))
        try:
            answers = engine.evaluate_batch(requests)
        finally:
            engine.entries["mlp"] = ("policy", (policy, iterative))
        assert isinstance(answers[1], NonFiniteActionError)
        assert answers[0] == answers[2] == expected


class TestReloadUnderTraffic:
    def test_reload_trains_while_a_tick_holds_a_policy_forward(self):
        # The tick thread sits inside act_batch's no_grad while the main
        # thread retrains the same deployment: the retraining must still
        # record gradients, and both requests must be answered.
        spec = ServiceSpec(scenario=_policy_scenario("reload-traffic"))
        demand = np.ones((11, 11))
        np.fill_diagonal(demand, 0.0)
        request = RouteRequest(demand=demand, labels=("mlp",))
        with serve(spec) as running:
            policy = running.engine.entries["mlp"][1][0]
            forward = policy._forward_batch
            inside, release = threading.Event(), threading.Event()

            def held_forward(observations):
                inside.set()
                assert release.wait(30.0)
                return forward(observations)

            policy._forward_batch = held_forward
            answers = {}
            held = threading.Thread(
                target=lambda: answers.setdefault("held", running.evaluate(request))
            )
            held.start()
            try:
                assert inside.wait(30.0)
                info = running.reload(spec)
            finally:
                release.set()
                held.join(timeout=30.0)
            assert info["reloaded"]
            assert answers["held"].entry("mlp").ratio >= 1.0 - 1e-9
            assert running.evaluate(request).entry("mlp").ratio >= 1.0 - 1e-9


class TestServedPolicyMatchesOffline:
    def test_replayed_test_demands_match_offline_ratios(self):
        # Offline evaluation normalises observations by the test sequences;
        # a served request carrying the same history must see the same
        # observation, so its ratio equals the offline step's exactly.
        scenario = ScenarioSpec(
            name="policy-offline-test",
            topology={"name": "abilene"},
            traffic={
                "model": "bimodal",
                "length": 10,
                "cycle_length": 5,
                "num_train": 2,
                "num_test": 2,
            },
            routing={"policies": ["gnn"]},
            training={"preset": "quick", "overrides": {"total_timesteps": 128}},
        )
        engine = ServiceEngine(ServiceSpec(scenario=scenario))
        run = engine._seed_run
        policy, iterative = engine.entries["gnn"][1]
        offline = run.evaluate_policies({"gnn": (policy, iterative, None)})["gnn"].ratios
        memory = engine.memory_length
        requests = [
            RouteRequest(
                demand=sequence.matrix(step),
                history=sequence.history(step - 1, memory),
                labels=("gnn",),
            )
            for sequence in run.test_seqs
            for step in range(memory, len(sequence))
        ]
        served = [entries[0].ratio for entries in engine.evaluate_batch(requests)]
        assert len(served) == len(offline) > 0
        assert served == list(offline)


class TestPrivateSolverCaches:
    def test_fresh_demand_solves_only_in_engine_caches(self):
        # The engine's ambient bindings are the only route to its private
        # caches: training, warm-up and a never-seen request must leave the
        # process-wide LP and splu caches untouched.
        from repro.engine.backend import SHARED_FACTORISATION_CACHE
        from repro.flows.lp import SHARED_LP_CACHE

        def counters(*caches):
            return [(cache.hits, cache.misses) for cache in caches]

        shared = (SHARED_LP_CACHE, SHARED_FACTORISATION_CACHE)
        scenario = _scenario(name="private-caches", strategies=("shortest_path",))
        scenario = scenario.with_updates(
            {
                "routing.policies": ["gnn"],
                "training.overrides": {"total_timesteps": 64},
                "evaluation.backend": "sparse",
            }
        )
        before = counters(*shared)
        engine = ServiceEngine(ServiceSpec(scenario=scenario))
        private = (engine.lp_cache, engine.fact_cache, engine.rewarder.cache)
        warmed = counters(*private)

        demand = np.abs(np.random.default_rng(4321).normal(size=(11, 11))) + 0.5
        np.fill_diagonal(demand, 0.0)
        [entries] = engine.evaluate_batch([RouteRequest(demand=demand)])
        assert [entry.label for entry in entries] == ["gnn", "shortest_path"]
        assert all(entry.ratio >= 1.0 - 1e-9 for entry in entries)

        for (hits, misses), (hits_after, misses_after) in zip(warmed, counters(*private)):
            assert hits_after + misses_after > hits + misses
        assert engine.rewarder.cache.misses == warmed[2][1] + 1  # one fresh optimum
        assert counters(*shared) == before
