"""Typed specs and wire records for the persistent routing service.

The service boundary is three frozen dataclasses, all JSON round-trippable
with the same eager validation as :mod:`repro.api.spec`:

* :class:`ServiceSpec` — *what to deploy*: a scenario plus server knobs
  (bind address, batch width, optional result-store directory for
  memoised full runs);
* :class:`RouteRequest` — *one query*: a demand matrix, an optional demand
  history for learned policies, and an optional label filter;
* :class:`RouteResponse` — *one answer*: per-routing-entry achieved /
  optimal utilisation and their ratio, plus tick telemetry.

Wire schema
-----------
Every request and response dict carries ``schema_version`` (currently
:data:`SCHEMA_VERSION`); servers reject requests from a *newer* schema
than they speak rather than mis-parsing them.  ``ServiceSpec`` follows the
spec-hash stability rule: every field is omitted from ``to_dict()`` at its
default, so adding server knobs never orphans stored results keyed by
:meth:`ServiceSpec.spec_hash` (and the embedded scenario's own hash is
untouched by construction).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from repro.api.spec import ScenarioSpec, SpecValidationError, _reject_unknown_keys

#: Version of the JSON wire schema spoken by the service and client.
#: Bump on any incompatible change to request/response shapes.
SCHEMA_VERSION = 1


def _check_schema_version(data: Mapping, context: str) -> None:
    """Reject payloads from a newer schema than this library speaks."""
    version = data.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise SpecValidationError(
            f"{context}.schema_version must be a positive int, got {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise SpecValidationError(
            f"{context} uses wire schema {version}, but this library speaks "
            f"{SCHEMA_VERSION}; upgrade the client/server pair"
        )


def _coerce_scenario(value: Any) -> ScenarioSpec:
    """A :class:`ScenarioSpec` from a spec, mapping, or registered name."""
    if isinstance(value, ScenarioSpec):
        return value
    if isinstance(value, str):
        # Lazy import: presets import components which import spec — going
        # through the registry at call time keeps this module cycle-free.
        from repro.api.presets import get_scenario

        return get_scenario(value)
    if isinstance(value, Mapping):
        return ScenarioSpec.from_dict(value)
    raise SpecValidationError(
        "service.scenario must be a ScenarioSpec, a registered scenario "
        f"name, or a spec mapping, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ServiceSpec:
    """A deployable service: one scenario plus server configuration.

    Parameters
    ----------
    scenario:
        The deployment content — a :class:`ScenarioSpec`, a registered
        scenario name (e.g. ``"zoo-large-sparse"``), or a spec mapping.
        Single-topology scenarios only: the request surface routes over
        one network.
    host / port:
        Bind address.  Port 0 (the default) binds an ephemeral port; the
        started server reports the real one.
    workers:
        Maximum requests coalesced into one evaluation tick.  A tick
        starts as soon as a request is queued and takes what is queued
        then; requests that arrive while it runs form the next tick.
    result_store:
        Optional directory for a :class:`repro.api.store.ResultStore`;
        when set, full ``/run`` results are memoised there per spec hash.
    max_queue_depth:
        Load-shedding bound: the maximum number of requests waiting for an
        evaluation tick before new submissions are rejected with a typed
        503 (``ServiceOverloadedError``) instead of queueing unboundedly.
    tick_timeout_s:
        Optional per-tick deadline.  A tick exceeding it answers its
        in-flight requests with a typed 504 (``TickTimeoutError``) instead
        of hanging every waiter; ``None`` (the default) disables the
        watchdog entirely — the tick runs inline with zero extra threads.
    """

    scenario: ScenarioSpec
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 8
    result_store: Optional[str] = None
    max_queue_depth: int = 256
    tick_timeout_s: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "scenario", _coerce_scenario(self.scenario))
        # A deployment answers per-request demand matrices against one
        # frozen network; silently evaluating the static base graph of a
        # dynamic scenario would misreport every perturbed step, so the
        # spec rejects (the HTTP surface maps this to a 400).  An explicit
        # "static" dynamics normalises to None upstream and serves fine.
        if self.scenario.dynamics is not None:
            raise SpecValidationError(
                f"the routing service cannot serve a dynamic scenario (dynamics "
                f"{self.scenario.dynamics.name!r}): requests are evaluated against "
                "one frozen network; evaluate time-varying scenarios offline with "
                "run()/sweep(), or deploy the static base scenario"
            )
        if not isinstance(self.host, str) or not self.host:
            raise SpecValidationError(
                f"service.host must be a non-empty string, got {self.host!r}"
            )
        if isinstance(self.port, bool) or not isinstance(self.port, int):
            raise SpecValidationError(f"service.port must be an int, got {self.port!r}")
        if not 0 <= self.port <= 65535:
            raise SpecValidationError(
                f"service.port must be in [0, 65535], got {self.port}"
            )
        if (
            isinstance(self.workers, bool)
            or not isinstance(self.workers, int)
            or self.workers < 1
        ):
            raise SpecValidationError(
                f"service.workers must be an int >= 1, got {self.workers!r}"
            )
        if self.result_store is not None and (
            not isinstance(self.result_store, str) or not self.result_store
        ):
            raise SpecValidationError(
                f"service.result_store must be a non-empty path string or None, "
                f"got {self.result_store!r}"
            )
        if (
            isinstance(self.max_queue_depth, bool)
            or not isinstance(self.max_queue_depth, int)
            or self.max_queue_depth < 1
        ):
            raise SpecValidationError(
                f"service.max_queue_depth must be an int >= 1, "
                f"got {self.max_queue_depth!r}"
            )
        if self.tick_timeout_s is not None:
            try:
                tick_timeout = float(self.tick_timeout_s)
            except (TypeError, ValueError):
                raise SpecValidationError(
                    f"service.tick_timeout_s must be a number or None, "
                    f"got {self.tick_timeout_s!r}"
                ) from None
            if not np.isfinite(tick_timeout) or tick_timeout <= 0.0:
                raise SpecValidationError(
                    f"service.tick_timeout_s must be finite and > 0, got {tick_timeout}"
                )
            object.__setattr__(self, "tick_timeout_s", tick_timeout)

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        # Stability rule (see repro.api.spec.EvaluationSpec.to_dict): every
        # server knob is emitted only when it deviates from its default, so
        # the hash of a spec that only names a scenario never changes when
        # new knobs are added.
        data: dict = {"scenario": self.scenario.to_dict()}
        if self.host != "127.0.0.1":
            data["host"] = self.host
        if self.port != 0:
            data["port"] = self.port
        if self.workers != 8:
            data["workers"] = self.workers
        if self.result_store is not None:
            data["result_store"] = self.result_store
        if self.max_queue_depth != 256:
            data["max_queue_depth"] = self.max_queue_depth
        if self.tick_timeout_s is not None:
            data["tick_timeout_s"] = self.tick_timeout_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceSpec":
        if not isinstance(data, Mapping):
            raise SpecValidationError(
                f"service spec must be a mapping, got {type(data).__name__}"
            )
        _reject_unknown_keys(cls, data, "service spec")
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ServiceSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"service spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Deterministic compact JSON — the :meth:`spec_hash` pre-image."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json`."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _check_demand(name: str, demand: Any) -> np.ndarray:
    demand = np.asarray(demand, dtype=np.float64)
    if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
        raise SpecValidationError(
            f"{name} must be a square matrix, got shape {demand.shape}"
        )
    if not np.all(np.isfinite(demand)):
        raise SpecValidationError(f"{name} must be finite")
    if np.any(demand < 0.0):
        raise SpecValidationError(f"{name} must be non-negative")
    demand.setflags(write=False)
    return demand


@dataclass(frozen=True, eq=False)
class RouteRequest:
    """One evaluation query against a deployed scenario.

    Parameters
    ----------
    demand:
        The demand matrix to route, shape ``(n, n)`` matching the deployed
        topology, non-negative and finite.
    history:
        Optional *raw* demand history for learned policies, shape
        ``(memory_length, n, n)`` — the ``memory_length`` most recent
        matrices, oldest first, exactly what
        :class:`repro.envs.routing_env.RoutingEnv` shows the agent before
        normalisation (the server divides by the deployment's demand
        scale).  Omitted: a zero history (the environments' pre-sequence
        padding).  Ignored for fixed strategies.
    labels:
        Restrict evaluation to these routing-entry labels; empty means
        every entry the deployment serves.
    request_id:
        Opaque correlation token echoed back on the response.
    """

    demand: np.ndarray
    history: Optional[np.ndarray] = None
    labels: tuple = ()
    request_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "demand", _check_demand("request.demand", self.demand))
        if self.history is not None:
            history = np.asarray(self.history, dtype=np.float64)
            n = self.demand.shape[0]
            if history.ndim != 3 or history.shape[1:] != (n, n):
                raise SpecValidationError(
                    f"request.history must have shape (memory, {n}, {n}), "
                    f"got {history.shape}"
                )
            if not np.all(np.isfinite(history)) or np.any(history < 0.0):
                raise SpecValidationError(
                    "request.history must be finite and non-negative"
                )
            history.setflags(write=False)
            object.__setattr__(self, "history", history)
        labels = tuple(self.labels)
        if not all(isinstance(label, str) and label for label in labels):
            raise SpecValidationError(
                f"request.labels must be non-empty strings, got {self.labels!r}"
            )
        object.__setattr__(self, "labels", labels)
        if not isinstance(self.request_id, str):
            raise SpecValidationError(
                f"request.request_id must be a string, got {self.request_id!r}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RouteRequest):
            return NotImplemented
        return (
            np.array_equal(self.demand, other.demand)
            and (
                (self.history is None) == (other.history is None)
                and (self.history is None or np.array_equal(self.history, other.history))
            )
            and self.labels == other.labels
            and self.request_id == other.request_id
        )

    def to_dict(self) -> dict:
        data: dict = {
            "schema_version": SCHEMA_VERSION,
            "demand": self.demand.tolist(),
        }
        if self.history is not None:
            data["history"] = self.history.tolist()
        if self.labels:
            data["labels"] = list(self.labels)
        if self.request_id:
            data["request_id"] = self.request_id
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouteRequest":
        if not isinstance(data, Mapping):
            raise SpecValidationError(
                f"route request must be a mapping, got {type(data).__name__}"
            )
        _check_schema_version(data, "route request")
        data = {k: v for k, v in data.items() if k != "schema_version"}
        _reject_unknown_keys(cls, data, "route request")
        return cls(**data)


@dataclass(frozen=True)
class RouteEntry:
    """One routing entry's evaluation of one demand matrix.

    ``achieved`` is the routing's maximum link utilisation, ``optimal`` the
    LP optimum for the same matrix (0.0 for an all-zero matrix, whose ratio
    is the defined 1.0), and ``ratio`` their quotient — ≥ 1 up to LP
    tolerance, exactly the quantity :func:`repro.api.run` pools.
    """

    label: str
    ratio: float
    achieved: float
    optimal: float

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise SpecValidationError(
                f"entry.label must be a non-empty string, got {self.label!r}"
            )
        for name in ("ratio", "achieved", "optimal"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise SpecValidationError(
                    f"entry.{name} must be a number, got {value!r}"
                ) from None
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ratio": self.ratio,
            "achieved": self.achieved,
            "optimal": self.optimal,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouteEntry":
        _reject_unknown_keys(cls, data, "route entry")
        return cls(**data)


@dataclass(frozen=True)
class RouteResponse:
    """The service's answer to one :class:`RouteRequest`.

    ``batched`` reports how many requests shared the evaluation tick that
    produced this answer (coalescing telemetry); ``elapsed_ms`` is the
    tick's evaluation time, not including queueing.
    """

    entries: tuple
    request_id: str = ""
    batched: int = 1
    elapsed_ms: float = 0.0

    def __post_init__(self):
        entries = tuple(
            e if isinstance(e, RouteEntry) else RouteEntry.from_dict(e)
            for e in self.entries
        )
        labels = [e.label for e in entries]
        duplicates = sorted({name for name in labels if labels.count(name) > 1})
        if duplicates:
            raise SpecValidationError(
                f"response entries must have unique labels; duplicated: {duplicates}"
            )
        object.__setattr__(self, "entries", entries)
        if not isinstance(self.request_id, str):
            raise SpecValidationError(
                f"response.request_id must be a string, got {self.request_id!r}"
            )
        if (
            isinstance(self.batched, bool)
            or not isinstance(self.batched, int)
            or self.batched < 1
        ):
            raise SpecValidationError(
                f"response.batched must be an int >= 1, got {self.batched!r}"
            )
        object.__setattr__(self, "elapsed_ms", float(self.elapsed_ms))

    def entry(self, label: str) -> RouteEntry:
        """The entry for ``label``; raises ``KeyError`` when absent."""
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    @property
    def ratios(self) -> dict:
        """``label -> ratio`` across every entry."""
        return {entry.label: entry.ratio for entry in self.entries}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "entries": [entry.to_dict() for entry in self.entries],
            "request_id": self.request_id,
            "batched": self.batched,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouteResponse":
        if not isinstance(data, Mapping):
            raise SpecValidationError(
                f"route response must be a mapping, got {type(data).__name__}"
            )
        _check_schema_version(data, "route response")
        data = {k: v for k, v in data.items() if k != "schema_version"}
        _reject_unknown_keys(cls, data, "route response")
        return cls(**data)


__all__ = [
    "SCHEMA_VERSION",
    "ServiceSpec",
    "RouteRequest",
    "RouteEntry",
    "RouteResponse",
]
