"""The service's concurrent half: HTTP front-end, coalescing, reload.

Request lifecycle::

    handler thread:  parse JSON -> RouteRequest -> batcher.submit() [blocks]
    batcher thread:  wait for work -> take up to `workers` queued requests
                     -> one engine tick (ServiceEngine.evaluate_batch)
                     -> distribute results
    handler thread:  RouteResponse -> JSON

Coalescing is driven by the queue, not by a timer: the batcher wakes on the
first queued request and takes whatever is queued, so a request on an idle
server starts its tick at once, and requests that arrive while a tick runs
form the next one.  It is what turns K concurrent identical requests into
one LP solve: the tick evaluates them sequentially against the engine's
caches, so the first pays the (already-warm) solve and the rest hit.
Distinct-support requests in one tick don't serialise behind each other's
*builds* either — cache misses build outside the cache lock (see
:class:`repro.utils.caching.KeyedLRU`).

Reload is copy-and-swap: the new :class:`ServiceEngine` is built completely
(train, warm) while the old one keeps answering, then the engine reference
swaps atomically.  A tick pins the engine reference once at its start, so
in-flight batches drain on the old engine and nothing ever observes a
half-built deployment.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional, Union

from repro.api.service import (
    SCHEMA_VERSION,
    RouteRequest,
    RouteResponse,
    ServiceSpec,
)
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.faults import fault_point
from repro.service.engine import ServiceEngine


class ServiceClosedError(RuntimeError):
    """The service is shutting down and no longer accepts requests."""


class ServiceOverloadedError(RuntimeError):
    """The tick queue is at ``max_queue_depth``; the request was shed (503).

    Load-shedding is deliberate back-pressure, not failure: the service is
    healthy, just saturated — clients retry with backoff.
    """


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before its tick answered it (504)."""


class TickTimeoutError(RuntimeError):
    """An evaluation tick exceeded ``tick_timeout_s``; its requests get
    this typed error instead of hanging every waiter (504)."""


class _Pending:
    """One enqueued request waiting for its tick."""

    __slots__ = ("request", "event", "entries", "batched", "elapsed_ms", "error", "deadline")

    def __init__(self, request: RouteRequest, deadline: Optional[float] = None):
        self.request = request
        self.event = threading.Event()
        self.entries = None
        self.batched = 1
        self.elapsed_ms = 0.0
        self.error: Optional[BaseException] = None
        self.deadline = deadline


class _Batcher:
    """Coalesces concurrent requests into engine ticks (module docstring)."""

    def __init__(self, server: "ServiceServer"):
        self._server = server
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._closed = False
        self.ticks = 0
        self.requests = 0
        self.max_coalesced = 0
        self.shed = 0
        self.deadline_expired = 0
        self.tick_timeouts = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-batcher", daemon=True
        )
        self._thread.start()

    def submit(
        self, request: RouteRequest, deadline: Optional[float] = None
    ) -> RouteResponse:
        """Enqueue one request and block until its tick answers it.

        ``deadline`` is an absolute ``time.time()`` epoch (propagated from
        the client's ``X-Deadline`` header).  A request whose deadline
        passes while still queued — or whose tick has not answered in time
        — raises :class:`DeadlineExceededError` instead of blocking
        forever; submissions beyond ``max_queue_depth`` are shed with
        :class:`ServiceOverloadedError` before they queue at all.
        """
        pending = _Pending(request, deadline)
        with self._cv:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            depth = self._server.spec.max_queue_depth
            if len(self._queue) >= depth:
                self.shed += 1
                raise ServiceOverloadedError(
                    f"tick queue is full ({depth} waiting); retry with backoff"
                )
            self._queue.append(pending)
            self._cv.notify()
        if deadline is None:
            pending.event.wait()
        else:
            remaining = deadline - time.time()
            if remaining <= 0.0 or not pending.event.wait(remaining):
                with self._cv:
                    try:
                        self._queue.remove(pending)
                    except ValueError:
                        pass  # already taken into a tick; its answer is moot
                if not pending.event.is_set():
                    self.deadline_expired += 1
                    raise DeadlineExceededError(
                        "request deadline expired before its tick answered"
                    )
        if pending.error is not None:
            raise pending.error
        return RouteResponse(
            entries=tuple(pending.entries),
            request_id=request.request_id,
            batched=pending.batched,
            elapsed_ms=pending.elapsed_ms,
        )

    def _tick(self, engine: ServiceEngine, requests: list) -> list:
        fault_point("service.tick")
        return engine.evaluate_batch(requests)

    def _tick_with_watchdog(self, engine: ServiceEngine, requests: list, timeout: float):
        """Run one tick on a watchdog thread, bounding its wall-clock.

        Only used when ``tick_timeout_s`` is configured — the default path
        stays inline with zero per-tick thread overhead.  A timed-out tick
        keeps running on its daemon thread (its results are discarded);
        the waiters get :class:`TickTimeoutError` now instead of hanging.
        """
        box: dict = {}
        done = threading.Event()

        def work():
            try:
                box["outcomes"] = self._tick(engine, requests)
            except BaseException as exc:  # noqa: BLE001 - relayed to waiters
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=work, name="repro-service-tick", daemon=True)
        thread.start()
        if not done.wait(timeout):
            self.tick_timeouts += 1
            raise TickTimeoutError(
                f"evaluation tick exceeded its {timeout:g}s deadline"
            )
        if "error" in box:
            raise box["error"]
        return box["outcomes"]

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed and not self._queue:
                    return
                # Spec knobs are read through the server so a reload's new
                # width applies from the next tick.
                width = self._server.spec.workers
                now = time.time()
                batch = []
                while self._queue and len(batch) < width:
                    pending = self._queue.popleft()
                    if pending.deadline is not None and now >= pending.deadline:
                        # Already expired while queued: answer immediately
                        # rather than spending tick capacity on it.
                        self.deadline_expired += 1
                        pending.error = DeadlineExceededError(
                            "request deadline expired while queued"
                        )
                        pending.event.set()
                        continue
                    batch.append(pending)
            if not batch:
                continue
            engine = self._server.engine  # pin: reloads swap for later ticks
            tick_timeout = self._server.spec.tick_timeout_s
            requests = [p.request for p in batch]
            start = time.perf_counter()
            try:
                if tick_timeout is None:
                    outcomes = self._tick(engine, requests)
                else:
                    outcomes = self._tick_with_watchdog(engine, requests, tick_timeout)
            except BaseException as exc:  # engine-level failure fails the tick
                outcomes = [exc] * len(batch)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.ticks += 1
            self.requests += len(batch)
            self.max_coalesced = max(self.max_coalesced, len(batch))
            for pending, outcome in zip(batch, outcomes):
                if isinstance(outcome, BaseException):
                    pending.error = outcome
                else:
                    pending.entries = outcome
                pending.batched = len(batch)
                pending.elapsed_ms = elapsed_ms
                pending.event.set()

    def close(self) -> None:
        """Stop accepting work, drain the loop, and fail queued requests."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout=30.0)
        with self._cv:
            leftovers = list(self._queue)
            self._queue.clear()
        for pending in leftovers:
            pending.error = ServiceClosedError("service closed before the request ran")
            pending.event.set()


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "ServiceServer"


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP endpoints; see README "Serving" for the wire schema."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the caller's business, not stderr's

    # -- plumbing ------------------------------------------------------

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, message: str, error_type: Optional[str] = None) -> None:
        payload = {"schema_version": SCHEMA_VERSION, "error": message}
        if error_type is not None:
            payload["error_type"] = error_type
        self._send(status, payload)

    def _request_deadline(self) -> Optional[float]:
        """The ``X-Deadline`` header as an absolute epoch, if present."""
        raw = self.headers.get("X-Deadline")
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"X-Deadline must be an absolute unix timestamp, got {raw!r}"
            ) from None
        return deadline

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecValidationError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SpecValidationError(
                f"request body must be a JSON object, got {type(data).__name__}"
            )
        return data

    # -- endpoints -----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service = self.server.service
        if self.path == "/health":
            self._send(200, service.health())
        elif self.path == "/stats":
            self._send(200, service.stats())
        else:
            self._fail(404, f"unknown endpoint {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        service = self.server.service
        try:
            body = self._read_json()
            if self.path == "/evaluate":
                response = service.evaluate(
                    RouteRequest.from_dict(body), deadline=self._request_deadline()
                )
                self._send(200, response.to_dict())
            elif self.path == "/run":
                result = service.run_result()
                self._send(
                    200,
                    {"schema_version": SCHEMA_VERSION, "result": result.to_dict()},
                )
            elif self.path == "/reload":
                info = service.reload(body)
                self._send(200, info)
            else:
                self._fail(404, f"unknown endpoint {self.path!r}")
        except SpecValidationError as exc:
            self._fail(400, str(exc))
        except (ServiceClosedError, ServiceOverloadedError) as exc:
            self._fail(503, str(exc), type(exc).__name__)
        except (DeadlineExceededError, TickTimeoutError) as exc:
            self._fail(504, str(exc), type(exc).__name__)
        except Exception as exc:  # per-request isolation: report, keep serving
            self._fail(500, f"{type(exc).__name__}: {exc}", type(exc).__name__)


class ServiceServer:
    """A running deployment: engine + batcher + threaded HTTP front-end.

    Construction is synchronous and expensive (trains policies, warms
    caches); by the time it returns the service answers requests.  Use as
    a context manager, or call :meth:`close` explicitly.  The bound port
    is :attr:`port` (useful with the spec's default ephemeral port 0).
    """

    def __init__(self, spec: Union[ServiceSpec, ScenarioSpec, Mapping, str], echo: bool = False):
        self.spec = coerce_service_spec(spec)
        self._started = time.time()
        self._engine = ServiceEngine(self.spec, echo=echo)
        self._engine_lock = threading.Lock()
        self._batcher = _Batcher(self)
        self._http = _ServiceHTTPServer((self.spec.host, self.spec.port), _Handler)
        self._http.service = self
        self.host = self._http.server_address[0]
        self.port = int(self._http.server_address[1])
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        self._closed = False

    # -- request surface (also usable in-process, without HTTP) --------

    @property
    def engine(self) -> ServiceEngine:
        """The current engine; reads are atomic, reloads swap the reference."""
        return self._engine

    def evaluate(
        self, request: RouteRequest, deadline: Optional[float] = None
    ) -> RouteResponse:
        """Answer one request through the coalescing tick loop.

        ``deadline`` (absolute epoch) bounds the total queue + tick wait;
        see :meth:`_Batcher.submit` for the shedding/deadline semantics.
        """
        return self._batcher.submit(request, deadline)

    def run_result(self):
        """The full offline scenario result (memoised; see the engine)."""
        return self.engine.run_result()

    def reload(self, spec: Union[ServiceSpec, ScenarioSpec, Mapping, str]) -> dict:
        """Deploy a new spec without dropping the socket.

        The replacement engine is built completely — topology, training,
        warm-up — while the old engine keeps serving; then the reference
        swaps atomically.  Ticks already running hold the old engine and
        drain undisturbed.  The bind address cannot change (the socket is
        kept); batching knobs take effect from the next tick.
        """
        new_spec = coerce_service_spec(spec)
        engine = ServiceEngine(new_spec)
        with self._engine_lock:
            self.spec = new_spec
            self._engine = engine
        return {
            "schema_version": SCHEMA_VERSION,
            "reloaded": True,
            "scenario": new_spec.scenario.name,
            "spec_hash": new_spec.spec_hash(),
        }

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        engine = self.engine
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "scenario": engine.spec.scenario.name,
            "spec_hash": engine.spec.spec_hash(),
            "labels": engine.labels(),
            "evaluable_labels": engine.evaluable_labels(),
            "uptime_s": time.time() - self._started,
        }

    def stats(self) -> dict:
        stats = self.engine.stats()
        stats["schema_version"] = SCHEMA_VERSION
        stats["ticks"] = self._batcher.ticks
        stats["requests"] = self._batcher.requests
        stats["max_coalesced"] = self._batcher.max_coalesced
        stats["shed"] = self._batcher.shed
        stats["deadline_expired"] = self._batcher.deadline_expired
        stats["tick_timeouts"] = self._batcher.tick_timeouts
        return stats

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Block until :meth:`close` is called (the CLI foreground path)."""
        self._http_thread.join()

    def close(self) -> None:
        """Drain in-flight work and stop the HTTP listener (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        self._http.shutdown()
        self._http.server_close()
        self._http_thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def coerce_service_spec(
    spec: Union[ServiceSpec, ScenarioSpec, Mapping, str]
) -> ServiceSpec:
    """Normalise the accepted deployment descriptions into a ServiceSpec.

    Accepts a :class:`ServiceSpec`, a :class:`ScenarioSpec` (wrapped with
    default server knobs), a registered scenario name, a service-spec
    mapping, or — for convenience — a bare scenario mapping (detected by
    the absence of a ``scenario`` key).
    """
    if isinstance(spec, ServiceSpec):
        return spec
    if isinstance(spec, (ScenarioSpec, str)):
        return ServiceSpec(scenario=spec)
    if isinstance(spec, Mapping):
        if "scenario" in spec:
            return ServiceSpec.from_dict(spec)
        return ServiceSpec(scenario=ScenarioSpec.from_dict(spec))
    raise SpecValidationError(
        "serve() takes a ServiceSpec, ScenarioSpec, registered scenario "
        f"name, or spec mapping, got {type(spec).__name__}"
    )


def serve(
    spec: Union[ServiceSpec, ScenarioSpec, Mapping, str], echo: bool = False
) -> ServiceServer:
    """Start a routing service for ``spec`` and return the running server.

    The returned :class:`ServiceServer` is already listening on
    ``(server.host, server.port)``; call :meth:`ServiceServer.serve_forever`
    to block (the CLI does), or use it as a context manager::

        with api.serve("zoo-large-sparse") as server:
            client = api.client.Client(port=server.port)
            print(client.evaluate(dm).ratios)
    """
    return ServiceServer(spec, echo=echo)


__all__ = [
    "DeadlineExceededError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceServer",
    "TickTimeoutError",
    "coerce_service_spec",
    "serve",
]
