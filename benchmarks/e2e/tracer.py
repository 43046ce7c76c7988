"""Outside-in span tracer for the end-to-end benchmark.

The benchmark times each layer from outside the program: it wraps the
public functions and methods in :data:`TARGETS` and records one span per
call.  Nothing under ``src/`` knows it is being traced.

A wrapper is installed *by identity*:

- a function target replaces every ``repro.*`` module global bound to that
  very function object, so ``from repro.engine.evaluate import
  batch_evaluate`` in another module is traced too;
- a method target replaces the method on the named class and on every
  subclass that defines its own copy;
- registry targets wrap the builders that ``Registry.get`` hands out for
  one component axis (topologies, strategies, dynamics).

A span is ``[id, parent_id, name, start, end, request_id]``.  The parent is
the innermost open span on the same thread.  The request id comes from the
call's arguments at the service entry points and is otherwise inherited
from the parent; a child that carries one passes it up, on closing, to a
parent that has none, so the HTTP handler's root span learns the id of
the request it parsed.  Spans stay in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter


def _request_id_of_request(args):
    return args[1].request_id


def _request_ids_of_batch(args):
    return ",".join(request.request_id for request in args[1])


#: (layer, "module:attribute" or "module:Class.method", request-id rule).
#: A rule maps the call's positional arguments to the request id(s) it
#: serves; spans without one inherit their parent's.
TARGETS = (
    ("policies.forward", "repro.policies.base:ActorCriticPolicy.act", None),
    ("policies.forward", "repro.policies.base:ActorCriticPolicy.act_batch", None),
    ("policies.evaluate", "repro.policies.base:ActorCriticPolicy.evaluate", None),
    ("gnn.batch_graphs", "repro.gnn.graphs_tuple:batch_graphs", None),
    ("tensor.backward", "repro.tensor.tensor:Tensor.backward", None),
    ("rl.learn", "repro.rl.ppo:PPO.learn", None),
    ("rl.collect_rollout", "repro.rl.ppo:PPO.collect_rollout", None),
    ("rl.update", "repro.rl.ppo:PPO.update", None),
    ("envs.step", "repro.rl.env:Env.step", None),
    ("engine.evaluate", "repro.engine.evaluate:batch_evaluate", None),
    ("engine.evaluate", "repro.engine.evaluate:batch_evaluate_routing", None),
    ("engine.warm_lp", "repro.engine.evaluate:warm_lp_cache", None),
    (
        "engine.balance_solve",
        "repro.engine.simulator_batch:destination_link_loads_sequence",
        None,
    ),
    ("routing.softmin", "repro.routing.softmin:softmin_routing", None),
    ("flows.simulate", "repro.flows.simulator:link_loads", None),
    ("flows.lp_solve", "repro.flows.lp:solve_optimal_max_utilisation", None),
    ("graphs.variant", "repro.graphs.dynamics:NetworkDelta.apply", None),
    ("traffic.generate", "repro.traffic.sequences:train_test_sequences", None),
    ("service.request", "repro.service.server:_Handler.do_POST", None),
    (
        "service.evaluate",
        "repro.service.server:ServiceServer.evaluate",
        _request_id_of_request,
    ),
    (
        "service.evaluate_batch",
        "repro.service.engine:ServiceEngine.evaluate_batch",
        _request_ids_of_batch,
    ),
    ("api.serialise", "repro.api.service:RouteRequest.from_dict", None),
    ("api.serialise", "repro.api.service:RouteResponse.to_dict", None),
)

#: (layer, registry name in ``repro.api.registry``): builders handed out by
#: that registry's ``get`` are traced under the layer.
REGISTRY_TARGETS = (
    ("graphs.build", "TOPOLOGIES"),
    ("routing.strategy_build", "STRATEGIES"),
    ("graphs.variant", "DYNAMICS"),
)

#: Cache classes whose instances' hit/miss counters the traced run reads.
CACHE_CLASSES = {
    "optimum": "repro.flows.lp:OptimalUtilisationCache",
    "structure": "repro.flows.lp:LinearProgramCache",
    "factorisation": "repro.engine.backend:FactorisationCache",
}

#: Process-wide cache instances created at import, before any tracer runs.
SHARED_CACHES = {
    "structure": "repro.flows.lp:SHARED_LP_CACHE",
    "factorisation": "repro.engine.backend:SHARED_FACTORISATION_CACHE",
}


def resolve(path: str):
    """``"pkg.module:Name.attr"`` -> the object it names."""
    module_name, _, qualname = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _subclasses(cls) -> list:
    found, pending = [cls], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, package: str = "repro"):
        self.package = package
        self.spans: list = []
        self.caches: dict = {}
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()
        self._shared: dict = {}
        self._undo: list = []
        self._wrapped: dict = {}

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request_id=None) -> list:
        stack = self._stack()
        record = [next(self._ids), None, name, 0.0, 0.0, request_id]
        if stack:
            record[1] = stack[-1][0]
            if request_id is None:
                record[5] = stack[-1][5]
        stack.append(record)
        record[3] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[4] = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack and stack[-1][5] is None:
            stack[-1][5] = record[5]
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, request_id=None):
        """Record one span around a block (the benchmark's own roots)."""
        record = self._open(name, request_id)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn, request_id=None):
        """A traced stand-in for ``fn`` (one per (name, fn) pair)."""
        key = (name, id(fn))
        if key in self._wrapped:
            return self._wrapped[key]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name, None if request_id is None else request_id(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        self._wrapped[key] = traced
        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, value)
        self._undo.append((owner, attribute, original))

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def wrap_function(self, name: str, fn, request_id=None) -> int:
        """Rebind every package module global that *is* ``fn``; returns the count."""
        wrapper = self.wrap(name, fn, request_id)
        rebound = 0
        for module in self._package_modules():
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attribute, wrapper)
                    rebound += 1
        return rebound

    def wrap_method(self, name: str, cls, method: str, request_id=None) -> int:
        """Wrap ``method`` on ``cls`` and on every subclass defining its own."""
        wrapped = 0
        for klass in _subclasses(cls):
            raw = klass.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(name, raw.__func__, request_id))
            else:
                replacement = self.wrap(name, raw, request_id)
            self._set(klass, method, replacement)
            wrapped += 1
        return wrapped

    def wrap_registries(self) -> None:
        """Trace the builders ``Registry.get`` returns for :data:`REGISTRY_TARGETS`."""
        from repro.api import registry as registry_module

        layers = {id(getattr(registry_module, attr)): name for name, attr in REGISTRY_TARGETS}
        original_get = registry_module.Registry.get
        tracer = self

        @functools.wraps(original_get)
        def get(registry, component):
            builder = original_get(registry, component)
            layer = layers.get(id(registry))
            return builder if layer is None else tracer.wrap(layer, builder)

        self._set(registry_module.Registry, "get", get)

    def track_caches(self) -> None:
        """Collect every cache instance built from now on, by kind."""
        for kind, path in CACHE_CLASSES.items():
            cls = resolve(path)
            bucket = self.caches.setdefault(kind, [])
            original_init = cls.__dict__["__init__"]

            def init(cache, *args, _original=original_init, _bucket=bucket, **kwargs):
                _original(cache, *args, **kwargs)
                _bucket.append(cache)

            self._set(cls, "__init__", functools.wraps(original_init)(init))
        for kind, path in SHARED_CACHES.items():
            cache = resolve(path)
            self._shared[kind] = (cache, cache.hits, cache.misses)

    def cache_counters(self) -> dict:
        """``kind -> (hits, misses)`` over the caches seen since tracking began."""
        out = {}
        for kind, instances in self.caches.items():
            hits = sum(cache.hits for cache in instances)
            misses = sum(cache.misses for cache in instances)
            if kind in self._shared:
                cache, hits_before, misses_before = self._shared[kind]
                hits += cache.hits - hits_before
                misses += cache.misses - misses_before
            out[kind] = (hits, misses)
        return out

    def install(self) -> None:
        """Import the package and wrap every target (see module docstring)."""
        importlib.import_module(self.package)
        for name, path, request_id in TARGETS:
            module_name, _, qualname = path.partition(":")
            owner, _, attribute = qualname.rpartition(".")
            if owner:
                cls = resolve(f"{module_name}:{owner}")
                self.wrap_method(name, cls, attribute, request_id)
            else:
                self.wrap_function(name, resolve(path), request_id)
        self.wrap_registries()
        self.track_caches()

    def uninstall(self) -> None:
        """Restore every attribute the tracer replaced, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- span arithmetic ------------------------------------------------------


def _covered(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cursor = 0.0, None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans: list) -> dict:
    """``span id -> self time``: duration minus what its children cover."""
    children: dict = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        inner = [
            (max(child[3], start), min(child[4], end))
            for child in children.get(span[0], ())
            if child[4] > start and child[3] < end
        ]
        out[span[0]] = (end - start) - _covered(inner)
    return out


def coverage(spans: list) -> float:
    """1 - the share of root-span time no child span accounts for."""
    selfs = self_times(spans)
    roots = [span for span in spans if span[1] is None]
    total = sum(span[4] - span[3] for span in roots)
    if total <= 0.0:
        return 0.0
    return 1.0 - sum(selfs[span[0]] for span in roots) / total


def layer_table(spans: list) -> dict:
    """``layer -> {"calls", "self_s", "total_s"}``.

    ``calls`` and ``total_s`` count only outermost spans of a name (a span
    nested in a span of the same name is part of that call), while
    ``self_s`` sums every span's self time, so the self times of all layers
    add up to the root spans' duration.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    table: dict = {}
    for span in spans:
        row = table.setdefault(span[2], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["self_s"] += selfs[span[0]]
        parent = by_id.get(span[1])
        while parent is not None and parent[2] != span[2]:
            parent = by_id.get(parent[1])
        if parent is None:
            row["calls"] += 1
            row["total_s"] += span[4] - span[3]
    return table
