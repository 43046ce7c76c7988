"""End-to-end resilience: retries, deadlines, shedding, breakers, quarantine.

Four layers, one promise — a fault ends in a retried-identical answer or a
documented typed error, never a hang and never a silent wrong answer:

* **Client**: jittered-backoff retries on idempotent calls, per-call
  deadlines propagated as ``X-Deadline``, non-JSON error bodies surfaced
  as snippets (exercised against a scripted throwaway HTTP server).
* **Batcher**: bounded queue depth with typed 503 load-shedding, queued
  and in-tick deadline expiry, per-tick watchdog timeouts.
* **Circuit breakers**: closed/open/half-open lifecycle on an injected
  clock, and the rule that legitimate typed outcomes (infeasible LPs,
  routing loops) never count as failures.
* **Stores**: corrupt-entry quarantine.
"""

import http.client
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import socket
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.api.client import (
    Client,
    ServiceError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.api.service import RouteRequest, ServiceSpec
from repro.api.store import STORE_FORMAT, ResultStore
from repro.engine.backend import SPLU_BREAKER, default_backend
from repro.engine.simulator_batch import destination_link_loads
from repro.faults import FaultPlan, inject
from repro.flows.lp import (
    DIRECT_SOLVER_BREAKER,
    InfeasibleRoutingError,
    direct_solver_available,
    solve_optimal_max_utilisation,
)
from repro.flows.simulator import RoutingLoopError
from repro.graphs import Network
from repro.service.server import (
    DeadlineExceededError,
    ServiceOverloadedError,
    TickTimeoutError,
    serve,
)
from repro.utils.resilience import CircuitBreaker
from tests.helpers import triangle_network
from tests.test_api_sweep import assert_results_equal, sub_spec
from tests.test_faults import finish_within
from tests.test_service import _scenario


@pytest.fixture(autouse=True)
def _fresh_breakers():
    DIRECT_SOLVER_BREAKER.reset()
    SPLU_BREAKER.reset()
    yield
    DIRECT_SOLVER_BREAKER.reset()
    SPLU_BREAKER.reset()


# ---------------------------------------------------------------------------
# Scripted HTTP server: deterministic transport-level failure injection
# ---------------------------------------------------------------------------


class _ScriptedHTTP(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _serve(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        owner = self.server.owner
        owner.requests.append(
            {
                "method": self.command,
                "path": self.path,
                "deadline": self.headers.get("X-Deadline"),
            }
        )
        status, body = owner.next_response()
        if isinstance(body, dict):
            payload = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        else:
            payload = body
            content_type = "text/html"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _serve
    do_POST = _serve


class ScriptedService:
    """A throwaway server answering from a response script (last repeats)."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.requests = []
        self._http = _ScriptedHTTP(("127.0.0.1", 0), _ScriptedHandler)
        self._http.owner = self
        self.port = int(self._http.server_address[1])
        self._thread = threading.Thread(target=self._http.serve_forever, daemon=True)
        self._thread.start()

    def next_response(self):
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 10.0)
        kwargs.setdefault("backoff_base", 0.001)
        return Client(host="127.0.0.1", port=self.port, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._http.shutdown()
        self._http.server_close()


class TestClientRetries:
    def test_retries_503_then_succeeds(self):
        with ScriptedService(
            (503, {"error": "busy", "schema_version": 1}), (200, {"status": "ok"})
        ) as srv:
            health = finish_within(lambda: srv.client(max_retries=2).health())
            assert health == {"status": "ok"}
            assert len(srv.requests) == 2

    def test_non_retryable_status_is_not_retried(self):
        with ScriptedService((400, {"error": "bad demand"})) as srv:
            with pytest.raises(ServiceError, match="bad demand") as err:
                srv.client(max_retries=3).health()
            assert err.value.status == 400 and not err.value.retryable
            assert len(srv.requests) == 1

    def test_reload_is_never_auto_retried(self):
        with ScriptedService((503, {"error": "mid-swap"})) as srv:
            with pytest.raises(ServiceUnavailableError):
                srv.client(max_retries=3).reload("fig6")
            assert len(srv.requests) == 1  # retryable type, but not idempotent

    def test_non_json_error_body_surfaces_a_snippet(self):
        page = b"<html><body><h1>502 Bad Gateway</h1></body></html>"
        with ScriptedService((502, page)) as srv:
            with pytest.raises(ServiceError, match="502 Bad Gateway") as err:
                srv.client(max_retries=0).health()
            assert err.value.status == 502

    def test_connection_refused_is_typed_and_retryable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = Client(port=port, max_retries=1, backoff_base=0.001)
        with pytest.raises(ServiceUnavailableError) as err:
            finish_within(lambda: client.health())
        assert err.value.retryable and err.value.status == 0
        # The same typed, retryable error during /reload: callers can
        # deliberately retry a reload that hit a restarting server.
        with pytest.raises(ServiceUnavailableError):
            finish_within(lambda: client.reload("fig6"))

    def test_deadline_bounds_all_attempts_and_backoff(self):
        with ScriptedService((503, {"error": "busy"})) as srv:
            client = srv.client(
                max_retries=50, backoff_base=0.05, request_deadline_s=0.3
            )
            start = time.perf_counter()
            with pytest.raises(ServiceTimeoutError, match="deadline"):
                finish_within(lambda: client.health())
            assert time.perf_counter() - start < 2.0
            assert len(srv.requests) >= 1

    def test_deadline_header_carries_the_absolute_epoch(self):
        with ScriptedService((200, {"status": "ok"})) as srv:
            before = time.time()
            srv.client(request_deadline_s=5.0).health()
            raw = srv.requests[0]["deadline"]
            assert raw is not None
            assert before + 4.0 <= float(raw) <= time.time() + 6.0

    def test_no_deadline_sends_no_header(self):
        with ScriptedService((200, {"status": "ok"})) as srv:
            srv.client().health()
            assert srv.requests[0]["deadline"] is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"max_retries": True},
            {"backoff_base": -0.1},
            {"request_deadline_s": 0.0},
            {"request_deadline_s": float("nan")},
            {"timeout": 0.0},
            {"port": 0},
        ],
    )
    def test_knobs_validated_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            Client(**kwargs)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_lifecycle_closed_open_halfopen(self):
        clock = _Clock()
        breaker = CircuitBreaker("t", failure_threshold=2, cooldown_s=10.0, clock=clock)
        assert breaker.allows() and breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allows()
        clock.now = 10.0
        assert breaker.state == "half-open"
        assert breaker.allows()  # the single probe
        assert not breaker.allows()  # concurrent callers take the fallback
        breaker.record_failure()  # failed probe: fresh cooldown, no new trip
        assert breaker.state == "open" and breaker.trips == 1
        clock.now = 19.0
        assert not breaker.allows()
        clock.now = 20.0
        assert breaker.allows()
        breaker.record_success()  # probe succeeded: closed again
        assert breaker.state == "closed" and breaker.allows()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("t", failure_threshold=2, clock=_Clock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_snapshot_and_validation(self):
        breaker = CircuitBreaker("lp.direct", failure_threshold=1, clock=_Clock())
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "name": "lp.direct",
            "state": "open",
            "consecutive_failures": 1,
            "trips": 1,
        }
        with pytest.raises(ValueError):
            CircuitBreaker("t", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("t", cooldown_s=-1.0)

    @pytest.mark.skipif(
        not direct_solver_available(), reason="direct HiGHS bindings unavailable"
    )
    def test_infeasible_lp_is_not_a_breaker_failure(self):
        net = Network(3, [(0, 1), (1, 0), (1, 2)])  # nothing leaves node 2
        demand = np.zeros((3, 3))
        demand[2, 0] = 1.0
        for _ in range(DIRECT_SOLVER_BREAKER.failure_threshold + 1):
            with pytest.raises(InfeasibleRoutingError):
                solve_optimal_max_utilisation(net, demand)
        assert DIRECT_SOLVER_BREAKER.state == "closed"

    def test_routing_loop_is_not_a_breaker_failure(self):
        net = triangle_network()
        table = np.zeros((3, net.num_edges))
        table[2, net.edge_index[(0, 1)]] = 1.0
        table[2, net.edge_index[(1, 0)]] = 1.0
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        with default_backend("sparse"):
            for _ in range(SPLU_BREAKER.failure_threshold + 1):
                with pytest.raises(RoutingLoopError):
                    destination_link_loads(net, table, demand)
        assert SPLU_BREAKER.state == "closed"


# ---------------------------------------------------------------------------
# Batcher back-pressure, deadlines, watchdog (a live chaos deployment)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_server():
    spec = ServiceSpec(
        scenario=_scenario(name="resilience-test", strategies=("ecmp",)),
        max_queue_depth=1,
        tick_timeout_s=1.0,
    )
    with serve(spec) as running:
        yield running


def _zero_request():
    return RouteRequest(demand=np.zeros((11, 11)))


class TestBatcherResilience:
    def test_tick_error_maps_to_500_then_recovers(self, chaos_server):
        client = Client(
            host=chaos_server.host, port=chaos_server.port, max_retries=0
        )
        with inject(FaultPlan.single("service.tick", kind="error", schedule=(0,))):
            with pytest.raises(ServiceError, match="injected fault") as err:
                finish_within(lambda: client.evaluate(np.zeros((11, 11))))
            assert err.value.status == 500
            # The fault fired exactly once; the retry is answered cleanly.
            response = finish_within(lambda: client.evaluate(np.zeros((11, 11))))
        assert response.entry("ecmp").ratio == 1.0

    def test_queue_overflow_sheds_with_typed_503(self, chaos_server):
        successes, sheds, other = [], [], []
        barrier = threading.Barrier(6, timeout=30.0)

        def submit():
            barrier.wait()
            try:
                successes.append(chaos_server.evaluate(_zero_request()))
            except ServiceOverloadedError as exc:
                sheds.append(exc)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                other.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        # The first tick is held, so the queue (depth 1) fills behind it
        # and the remaining submissions are shed.
        with inject(
            FaultPlan.single(
                "service.tick", kind="delay", delay_s=0.3, probability=1.0, limit=1
            )
        ):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not other, other
        assert len(successes) >= 1 and len(sheds) >= 1
        assert len(successes) + len(sheds) == 6
        for response in successes:
            assert response.entry("ecmp").ratio == 1.0
        assert "retry with backoff" in str(sheds[0])
        assert chaos_server.stats()["shed"] >= 1

    def test_deadline_expiry_during_a_slow_tick_is_typed(self, chaos_server):
        with inject(
            FaultPlan.single(
                "service.tick", kind="delay", delay_s=0.5, probability=1.0, limit=1
            )
        ):
            with pytest.raises(DeadlineExceededError):
                finish_within(
                    lambda: chaos_server.evaluate(
                        _zero_request(), deadline=time.time() + 0.1
                    )
                )
        assert chaos_server.stats()["deadline_expired"] >= 1
        response = finish_within(lambda: chaos_server.evaluate(_zero_request()))
        assert response.entry("ecmp").ratio == 1.0

    def test_stale_deadline_header_is_rejected_with_504(self, chaos_server):
        connection = http.client.HTTPConnection(
            chaos_server.host, chaos_server.port, timeout=30
        )
        body = json.dumps(_zero_request().to_dict())
        connection.request(
            "POST",
            "/evaluate",
            body=body,
            headers={
                "Content-Type": "application/json",
                "X-Deadline": repr(time.time() - 1.0),
            },
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 504
        assert payload["error_type"] == "DeadlineExceededError"

    def test_malformed_deadline_header_is_a_400(self, chaos_server):
        connection = http.client.HTTPConnection(
            chaos_server.host, chaos_server.port, timeout=30
        )
        connection.request(
            "POST",
            "/evaluate",
            body=json.dumps(_zero_request().to_dict()),
            headers={"Content-Type": "application/json", "X-Deadline": "soon"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "X-Deadline" in payload["error"]

    def test_tick_timeout_is_typed_and_does_not_wedge_the_loop(self, chaos_server):
        with inject(
            FaultPlan.single(
                "service.tick", kind="delay", delay_s=1.6, probability=1.0, limit=1
            )
        ):
            with pytest.raises(TickTimeoutError):
                finish_within(lambda: chaos_server.evaluate(_zero_request()))
        assert chaos_server.stats()["tick_timeouts"] >= 1
        # The abandoned tick thread finishes in the background; the loop
        # keeps answering.
        response = finish_within(lambda: chaos_server.evaluate(_zero_request()))
        assert response.entry("ecmp").ratio == 1.0

    def test_concurrent_reload_and_evaluate_under_tick_delay(self, chaos_server):
        """The satellite scenario: /reload racing /evaluate while ticks are
        slowed by an injected delay — both finish, neither corrupts."""
        outcome = {}
        new_spec = ServiceSpec(
            scenario=_scenario(name="resilience-reloaded", strategies=("ecmp",)),
            max_queue_depth=1,
            tick_timeout_s=1.0,
        )
        with inject(
            FaultPlan.single(
                "service.tick", kind="delay", delay_s=0.3, probability=1.0, limit=2
            )
        ):

            def evaluate():
                outcome["response"] = chaos_server.evaluate(_zero_request())

            def reload():
                outcome["reload"] = chaos_server.reload(new_spec)

            threads = [
                threading.Thread(target=evaluate),
                threading.Thread(target=reload),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
        assert outcome["reload"]["reloaded"] is True
        assert outcome["response"].entry("ecmp").ratio == 1.0
        assert chaos_server.health()["scenario"] == "resilience-reloaded"
        # The swapped-in engine serves correctly after the race.
        response = finish_within(lambda: chaos_server.evaluate(_zero_request()))
        assert response.entry("ecmp").ratio == 1.0


# ---------------------------------------------------------------------------
# Store quarantine
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_truncated_result_store_entry_is_quarantined(self, tmp_path):
        spec = sub_spec()
        result = api.run(spec)
        store = ResultStore(tmp_path / "store")
        path = store.put(spec, result)
        assert store.hashes() == [spec.spec_hash()]
        path.write_text(path.read_text()[:40])  # a crashed writer's torso
        with pytest.warns(RuntimeWarning, match="quarantined corrupt store entry"):
            assert store.get(spec) is None
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.is_file() and not path.is_file()
        assert store.hashes() == []  # quarantined entries are not listed
        assert spec not in store
        store.put(spec, result)  # the next put rebuilds the entry
        assert_results_equal(store.get(spec), result)
        assert corrupt.is_file()  # ...without clobbering the evidence

    def test_wrong_format_entry_is_quarantined(self, tmp_path):
        spec = sub_spec()
        store = ResultStore(tmp_path / "store")
        path = store.put(spec, api.run(spec))
        path.write_text(json.dumps({"format": STORE_FORMAT + 1, "result": {}}))
        with pytest.warns(RuntimeWarning, match="unsupported entry format"):
            assert store.get(spec) is None
        assert path.with_name(path.name + ".corrupt").is_file()
