"""The warm half of the routing service: deployment state + batch ticks.

A :class:`ServiceEngine` is everything expensive about a deployment, paid
once at construction: the topology built, every learned policy trained,
every fixed strategy materialised, and the three cache layers primed —
private :class:`~repro.flows.lp.LinearProgramCache` (constraint structures
and persistent solver models), private
:class:`~repro.engine.backend.FactorisationCache` (per-destination ``splu``
factors), and the rewarder's :class:`~repro.flows.lp.OptimalUtilisationCache`
(LP optima per demand matrix).  After that, :meth:`evaluate_batch` answers a
whole coalesced tick of requests with RHS-only LP re-solves and cached
back-substitutions.

The evaluation path is deliberately the *same code* the offline runner
uses — :func:`~repro.engine.simulator_batch.destination_link_loads_sequence`
for destination-based strategies, the environments' softmin/weights
translation for policies, :meth:`RewardComputer.ratio_from_achieved` for
the denominators — so served numbers match
:func:`repro.engine.batch_evaluate_routing` / :func:`repro.api.run` on the
same spec (bit-identical on the common path; 1e-8 where solver model reuse
differs).

Cache and backend choice are ambient and per-thread (:func:`use_lp_cache`,
:func:`use_factorisation_cache`, :func:`default_backend`), so no handle is
threaded through the environment or simulator layers.  The engine binds
its private caches around construction, each tick and :meth:`run_result`,
so every LP structure and ``splu`` factorisation it uses is engine-owned,
and two engines (old and new, during a reload) never share state.  It
binds the scenario's ``evaluation.backend`` around the warm pass and each
tick; training runs unbound (``"auto"``), as offline.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.api.results import ScenarioResult
from repro.api.runner import _SeedRun, _strategy_factory, run as run_scenario
from repro.api.service import RouteEntry, RouteRequest, ServiceSpec
from repro.api.spec import SpecValidationError
from repro.api.store import ResultStore
from repro.engine.backend import (
    FactorisationCache,
    default_backend,
    use_factorisation_cache,
)
from repro.engine.evaluate import warm_lp_cache
from repro.engine.simulator_batch import destination_link_loads_sequence
from repro.envs.observation import GraphObservation
from repro.envs.reward import weights_from_action
from repro.envs.routing_env import demand_normaliser
from repro.flows.lp import LinearProgramCache, use_lp_cache
from repro.flows.simulator import max_link_utilisation
from repro.routing.softmin import softmin_routing
from repro.routing.strategy import DestinationRouting
from repro.utils.seeding import rng_from_seed


class ServiceEngine:
    """One deployment's warm state plus its batch evaluation path.

    Parameters
    ----------
    spec:
        The deployment.  The scenario must be single-topology — the
        request surface routes demand matrices over one network.
    echo:
        Print per-update training diagnostics while policies train.
    """

    def __init__(self, spec: ServiceSpec, echo: bool = False):
        self.spec = spec
        scenario = spec.scenario
        self.backend = scenario.evaluation.backend
        self.lp_cache = LinearProgramCache(max_entries=32)
        self.fact_cache = FactorisationCache(max_entries=256)
        self._rng = rng_from_seed(scenario.evaluation.seeds[0])
        self._run_lock = threading.Lock()
        self._run_result: Optional[ScenarioResult] = None

        with self._bindings():
            run = _SeedRun(scenario, scenario.evaluation.seeds[0], echo)
            if not run.single:
                raise SpecValidationError(
                    "the routing service requires a single-topology scenario "
                    f"(topology {scenario.topology.name!r} builds a pool)"
                )
            # ServiceSpec already rejects dynamic scenarios; guard again in
            # case an engine is constructed around the spec layer, so a
            # time-varying scenario is never scored on its base graph.
            if run.dynamics is not None:
                raise SpecValidationError(
                    "the routing service cannot serve a dynamic scenario; "
                    "evaluate it offline with run()/sweep()"
                )
            self._seed_run = run
            self.rewarder = run.rewarder
            self.network = run.test_graphs[0]
            scale = run.scale
            self.memory_length = scale.memory_length
            self.softmin_gamma = scale.softmin_gamma
            self.weight_scale = scale.weight_scale
            # Offline evaluation normalises by the test sequences it rolls
            # over; serving the same scale keeps served ratios equal to it.
            self.demand_scale = demand_normaliser(run.test_seqs)

            # label -> ("strategy", strategy) | ("policy", (policy, iterative)),
            # in scenario order (policies first, matching result dictionaries).
            self.entries: dict = {}
            if scenario.routing.policies:
                trained = run.train_policies()
                for label, (policy, iterative, _) in trained.items():
                    self.entries[label] = ("policy", (policy, iterative))
            for sspec in scenario.routing.strategies:
                self.entries[sspec.key] = (
                    "strategy",
                    _strategy_factory(sspec)(self.network),
                )
            self._warm()

    # -- warm-up -------------------------------------------------------

    @contextmanager
    def _bindings(self):
        """Install this engine's private caches as the thread's defaults."""
        with use_lp_cache(self.lp_cache), use_factorisation_cache(self.fact_cache):
            yield

    def _warm(self) -> None:
        """Presolve what the held-out workload will ask for.

        LP optima (and with them the constraint structures and persistent
        solver models) for every distinct test demand matrix, then one
        stacked load solve per destination-based strategy so the sparse
        backend's factorisations exist before the first request.
        """
        sequences = self._seed_run.test_seqs
        demands = [
            sequence.matrix(step)
            for sequence in sequences
            for step in range(self.memory_length, len(sequence))
        ]
        if not demands:
            return
        with default_backend(self.backend):
            warm_lp_cache(self.network, sequences, self.rewarder, self.memory_length)
            first = np.stack(demands[:1])
            for kind, obj in self.entries.values():
                if kind == "strategy" and isinstance(obj, DestinationRouting):
                    destination_link_loads_sequence(self.network, obj.destination_table(), first)

    # -- evaluation ----------------------------------------------------

    def evaluate_batch(self, requests: Sequence[RouteRequest]) -> list:
        """Answer one coalesced tick of requests.

        Returns one element per request, aligned by index: a list of
        :class:`RouteEntry` on success, or the exception that failed that
        request.  Errors are isolated per request — an infeasible demand
        matrix never fails the rest of its tick.  Destination-based
        strategies evaluate the whole tick's matrices in one stacked
        multi-RHS solve per strategy, exactly like
        :func:`repro.engine.batch_evaluate_routing`.
        """
        n = self.network.num_nodes
        entries: list = [[] for _ in requests]
        errors: list = [None] * len(requests)
        for i, request in enumerate(requests):
            if request.demand.shape != (n, n):
                errors[i] = SpecValidationError(
                    f"request demand has shape {request.demand.shape}, but the "
                    f"deployed topology has {n} nodes"
                )
                continue
            unknown = sorted(set(request.labels) - set(self.entries))
            if unknown:
                errors[i] = SpecValidationError(
                    f"unknown routing label(s) {unknown}; this deployment "
                    f"serves {sorted(self.entries)}"
                )
        with self._bindings(), default_backend(self.backend):
            for label, (kind, obj) in self.entries.items():
                idxs = [
                    i
                    for i, request in enumerate(requests)
                    if errors[i] is None
                    and (not request.labels or label in request.labels)
                ]
                if not idxs:
                    continue
                tick = self._strategy_tick if kind == "strategy" else self._policy_tick
                for i, achieved in zip(idxs, tick(label, obj, [requests[i] for i in idxs])):
                    if isinstance(achieved, Exception):
                        errors[i] = achieved
                        continue
                    try:
                        ratio, optimal = self.rewarder.ratio_from_achieved(
                            self.network, achieved, requests[i].demand
                        )
                        entries[i].append(RouteEntry(label, ratio, achieved, optimal))
                    except Exception as exc:
                        errors[i] = exc
        return [
            errors[i] if errors[i] is not None else entries[i]
            for i in range(len(requests))
        ]

    def _strategy_tick(self, label, strategy, requests) -> list:
        """Each request's achieved ``U_max`` under a fixed strategy (or its error)."""
        if isinstance(strategy, DestinationRouting):
            stacked = np.stack([request.demand for request in requests])
            try:
                loads = destination_link_loads_sequence(
                    self.network, strategy.destination_table(), stacked
                )
            except Exception as exc:
                return [exc] * len(requests)
            return [float(u) for u in (loads / self.network.capacities).max(axis=1)]
        return [
            _or_error(max_link_utilisation, self.network, strategy, request.demand)
            for request in requests
        ]

    def _policy_tick(self, label, entry, requests) -> list:
        """Each request's achieved ``U_max`` under a learned policy (or its error)."""
        policy, iterative = entry
        if iterative:
            exc = SpecValidationError(
                f"policy {label!r} is iterative (one edge per sub-step) and "
                "cannot answer per-request evaluation; use the /run endpoint"
            )
            return [exc] * len(requests)
        return [_or_error(self._policy_achieved, policy, request) for request in requests]

    def _policy_achieved(self, policy, request: RouteRequest) -> float:
        n = self.network.num_nodes
        history = request.history
        if history is None:
            history = np.zeros((self.memory_length, n, n))
        elif history.shape[0] != self.memory_length:
            raise SpecValidationError(
                f"request history has {history.shape[0]} steps, but the "
                f"deployment observes memory_length={self.memory_length}"
            )
        observation = GraphObservation(self.network, history / self.demand_scale)
        actions, _, _ = policy.act_batch([observation], self._rng, deterministic=True)
        weights = weights_from_action(actions[0], self.weight_scale)
        routing = softmin_routing(self.network, weights, gamma=self.softmin_gamma)
        return max_link_utilisation(self.network, routing, request.demand)

    # -- full runs -----------------------------------------------------

    def run_result(self) -> ScenarioResult:
        """The scenario's complete offline result, computed once.

        Executes :func:`repro.api.run` under this engine's cache bindings
        (warm structures and optima carry over) and memoises — in memory
        always, and through the spec-hashed
        :class:`~repro.api.store.ResultStore` when the deployment names a
        ``result_store`` directory, so a restarted service reuses the
        stored entry instead of re-running.
        """
        with self._run_lock:
            if self._run_result is None:
                scenario = self.spec.scenario
                store = (
                    ResultStore(self.spec.result_store)
                    if self.spec.result_store
                    else None
                )
                result = store.get(scenario) if store is not None else None
                if result is None:
                    with self._bindings():
                        result = run_scenario(scenario)
                    if store is not None:
                        store.put(scenario, result)
                self._run_result = result
            return self._run_result

    # -- introspection -------------------------------------------------

    def labels(self) -> list:
        """Every routing label this deployment serves, in scenario order."""
        return list(self.entries)

    def evaluable_labels(self) -> list:
        """Labels that answer per-request evaluation (iterative policies
        only run through the offline ``/run`` path)."""
        return [
            label
            for label, (kind, obj) in self.entries.items()
            if kind == "strategy" or not obj[1]
        ]

    def stats(self) -> dict:
        """Cache counters and deployment identity, JSON-ready."""

        def counters(cache) -> dict:
            return {"hits": cache.hits, "misses": cache.misses, "entries": len(cache)}

        return {
            "scenario": self.spec.scenario.name,
            "spec_hash": self.spec.spec_hash(),
            "scenario_hash": self.spec.scenario.spec_hash(),
            "backend": self.backend,
            "labels": self.labels(),
            "num_nodes": self.network.num_nodes,
            "num_edges": self.network.num_edges,
            "caches": {
                "lp_structures": counters(self.lp_cache),
                "factorisations": counters(self.fact_cache),
                "optima": counters(self.rewarder.cache),
            },
        }


def _or_error(function, *args):
    """``function(*args)``, or the exception it raised (errors stay per request)."""
    try:
        return function(*args)
    except Exception as exc:
        return exc


__all__ = ["ServiceEngine"]
