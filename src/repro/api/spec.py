"""Declarative experiment specifications.

A :class:`ScenarioSpec` describes one experiment as *data*: which topology
to build, which traffic model to draw demand sequences from, which learned
policies and fixed routing strategies to compare, how hard to train, and
how to evaluate.  Every axis resolves through the component registries in
:mod:`repro.api.registry`, so a spec is fully serialisable — ``to_dict`` /
``from_dict`` / ``to_json`` / ``from_json`` round-trip losslessly — and a
JSON file on disk is a complete, runnable experiment
(``python -m repro.experiments.runner run scenario.json``).

Validation is eager: constructing a spec (or loading one from a dict/JSON)
checks registry keys, field names, metric names and the training scale
immediately, raising :class:`SpecValidationError` with an actionable
message instead of a stack trace from deep inside a builder.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.api.registry import (
    DYNAMICS,
    POLICIES,
    STRATEGIES,
    TOPOLOGIES,
    TRAFFIC_MODELS,
    UnknownComponentError,
)
from repro.engine.backend import check_backend
from repro.experiments.config import ExperimentScale, PRESETS, scale_field_names, scaled

#: Metrics :func:`repro.api.run` knows how to collect.
KNOWN_METRICS = ("utilisation_ratio", "learning_curve", "throughput")


class SpecValidationError(ValueError):
    """A scenario spec is malformed; the message names the offending field."""


def _jsonify(value: Any) -> Any:
    """Canonicalise nested params so specs compare equal across JSON trips."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise SpecValidationError(
        f"spec parameters must be JSON-serialisable, got {type(value).__name__}: {value!r}"
    )


def _coerce_int(owner: str, value: Any, minimum: int) -> int:
    """Coerce an integral value (int, np.int64, ...) with a lower bound.

    Sweep arithmetic and ``--set`` overrides naturally produce numpy
    integer scalars; those coerce losslessly.  Bools, floats and anything
    else without ``__index__`` are rejected.
    """
    if isinstance(value, bool):
        raise SpecValidationError(f"{owner} must be an int, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise SpecValidationError(
            f"{owner} must be an int, got {type(value).__name__}: {value!r}"
        ) from None
    if value < minimum:
        raise SpecValidationError(f"{owner} must be >= {minimum}, got {value}")
    return value


def _check_params(owner: str, params: Any) -> dict:
    if not isinstance(params, Mapping):
        raise SpecValidationError(
            f"{owner}.params must be a mapping of keyword arguments, got {type(params).__name__}"
        )
    return _jsonify(dict(params))


def _reject_unknown_keys(cls, data: Mapping, context: str) -> None:
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise SpecValidationError(
            f"unknown field(s) {unknown} in {context}; valid fields: {valid}"
        )


@dataclass(frozen=True)
class TopologySpec:
    """The topology axis: a registry builder name plus its parameters.

    The builder either returns a single network (the fixed-graph case) or a
    ``(train_graphs, test_graphs)`` pool pair (the generalisation case).
    """

    name: str = "abilene"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in TOPOLOGIES:
            raise UnknownComponentError("topology", self.name, TOPOLOGIES.names())
        object.__setattr__(self, "name", str(self.name).lower())
        object.__setattr__(self, "params", _check_params("topology", self.params))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        _reject_unknown_keys(cls, data, "topology")
        return cls(**data)


@dataclass(frozen=True)
class TrafficSpec:
    """The traffic axis: demand-matrix model plus cyclical-sequence shape.

    Sequence fields left as ``None`` fall back to the training scale's
    values (``sequence_length``, ``cycle_length``, ``num_train_sequences``,
    ``num_test_sequences``), so the paper presets stay single-sourced.
    """

    model: str = "bimodal"
    params: dict = field(default_factory=dict)
    length: Optional[int] = None
    cycle_length: Optional[int] = None
    num_train: Optional[int] = None
    num_test: Optional[int] = None

    def __post_init__(self):
        if self.model not in TRAFFIC_MODELS:
            raise UnknownComponentError("traffic model", self.model, TRAFFIC_MODELS.names())
        object.__setattr__(self, "model", str(self.model).lower())
        object.__setattr__(self, "params", _check_params("traffic", self.params))
        for name, minimum in (
            ("length", 1),
            ("cycle_length", 1),
            ("num_train", 1),
            ("num_test", 0),
        ):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _coerce_int(f"traffic.{name}", value, minimum))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "length": self.length,
            "cycle_length": self.cycle_length,
            "num_train": self.num_train,
            "num_test": self.num_test,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrafficSpec":
        _reject_unknown_keys(cls, data, "traffic")
        return cls(**data)


@dataclass(frozen=True)
class PolicySpec:
    """One learned policy to train and evaluate.

    ``params`` override the factory's scale-derived constructor arguments;
    ``ppo`` picks the hyperparameter profile (``"default"`` uses the scale's
    ``learning_rate``; ``"mlp"`` uses the gentler tuned MLP schedule);
    ``label`` keys the result dictionaries (defaults to ``name``).
    """

    name: str = "gnn"
    params: dict = field(default_factory=dict)
    ppo: str = "default"
    label: Optional[str] = None

    def __post_init__(self):
        if self.name not in POLICIES:
            raise UnknownComponentError("policy", self.name, POLICIES.names())
        object.__setattr__(self, "name", str(self.name).lower())
        object.__setattr__(self, "params", _check_params(f"policy {self.name!r}", self.params))
        if self.ppo not in ("default", "mlp"):
            raise SpecValidationError(
                f"policy {self.name!r}: ppo profile must be 'default' or 'mlp', got {self.ppo!r}"
            )

    @property
    def key(self) -> str:
        return self.label or self.name

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "ppo": self.ppo, "label": self.label}

    @classmethod
    def from_dict(cls, data) -> "PolicySpec":
        if isinstance(data, str):
            return cls(name=data)
        _reject_unknown_keys(cls, data, "routing.policies[...]")
        return cls(**data)


@dataclass(frozen=True)
class StrategySpec:
    """One fixed routing strategy to evaluate as a baseline."""

    name: str = "shortest_path"
    params: dict = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise UnknownComponentError("routing strategy", self.name, STRATEGIES.names())
        object.__setattr__(self, "name", str(self.name).lower())
        object.__setattr__(self, "params", _check_params(f"strategy {self.name!r}", self.params))

    @property
    def key(self) -> str:
        return self.label or self.name

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "label": self.label}

    @classmethod
    def from_dict(cls, data) -> "StrategySpec":
        if isinstance(data, str):
            return cls(name=data)
        _reject_unknown_keys(cls, data, "routing.strategies[...]")
        return cls(**data)


@dataclass(frozen=True)
class RoutingSpec:
    """The routing axis: learned policies and/or fixed baseline strategies."""

    policies: tuple = ()
    strategies: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "policies",
            tuple(p if isinstance(p, PolicySpec) else PolicySpec.from_dict(p) for p in self.policies),
        )
        object.__setattr__(
            self,
            "strategies",
            tuple(
                s if isinstance(s, StrategySpec) else StrategySpec.from_dict(s)
                for s in self.strategies
            ),
        )
        keys = [p.key for p in self.policies] + [s.key for s in self.strategies]
        duplicates = sorted({k for k in keys if keys.count(k) > 1})
        if duplicates:
            raise SpecValidationError(
                f"routing entries must have unique labels; duplicated: {duplicates} "
                "(set 'label' to disambiguate repeated components)"
            )

    def to_dict(self) -> dict:
        return {
            "policies": [p.to_dict() for p in self.policies],
            "strategies": [s.to_dict() for s in self.strategies],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoutingSpec":
        _reject_unknown_keys(cls, data, "routing")
        return cls(**data)


@dataclass(frozen=True)
class TrainingSpec:
    """The training axis: an :class:`ExperimentScale` preset plus overrides."""

    preset: str = "quick"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise SpecValidationError(
                f"unknown training preset {self.preset!r}; choose from {sorted(PRESETS)}"
            )
        object.__setattr__(self, "overrides", _check_params("training", self.overrides))
        try:
            self.scale()
        except ValueError as exc:
            raise SpecValidationError(f"invalid training spec: {exc}") from None

    def scale(self) -> ExperimentScale:
        """Materialise the preset with overrides applied (tuples restored)."""
        overrides = {
            k: tuple(v) if isinstance(v, list) else v for k, v in self.overrides.items()
        }
        return scaled(self.preset, **overrides)

    def to_dict(self) -> dict:
        return {"preset": self.preset, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrainingSpec":
        data = dict(data)
        # Shorthand: ExperimentScale field names at the top level fold into
        # overrides, so ``--set training.total_timesteps=256`` just works.
        scale_fields = set(scale_field_names())
        folded = {k: data.pop(k) for k in list(data) if k in scale_fields}
        if folded:
            merged = dict(data.get("overrides", {}))
            merged.update(folded)
            data["overrides"] = merged
        _reject_unknown_keys(cls, data, "training")
        return cls(**data)


@dataclass(frozen=True)
class EvaluationSpec:
    """The evaluation axis: metrics, seeds, and the solver backend.

    ``backend`` selects the balance-system solver the evaluation runs on
    (``"auto"``/``"dense"``/``"sparse"``, see :mod:`repro.engine.backend`);
    ``"auto"`` applies the node-count/edge-density rule per topology, while
    large-topology presets pin ``"sparse"`` explicitly.
    """

    metrics: tuple = ("utilisation_ratio",)
    seeds: tuple = (0,)
    backend: str = "auto"

    def __post_init__(self):
        try:
            object.__setattr__(self, "backend", check_backend(self.backend))
        except ValueError as error:
            raise SpecValidationError(f"evaluation.{error}") from None
        metrics = tuple(self.metrics)
        unknown = sorted(set(metrics) - set(KNOWN_METRICS))
        if unknown:
            raise SpecValidationError(
                f"unknown metric(s) {unknown}; choose from {list(KNOWN_METRICS)}"
            )
        if not metrics:
            raise SpecValidationError("evaluation.metrics must name at least one metric")
        raw = self.seeds
        if isinstance(raw, (str, bytes)):
            raise SpecValidationError(
                f"evaluation.seeds must be a non-empty list of ints, got {raw!r}"
            )
        try:
            raw = [raw] if isinstance(raw, bool) else [operator.index(raw)]
        except TypeError:
            try:
                raw = list(raw)
            except TypeError:
                raise SpecValidationError(
                    f"evaluation.seeds must be a non-empty list of ints, got {raw!r}"
                ) from None
        # numpy's SeedSequence rejects negative entropy, so a negative seed
        # must fail here, not deep inside a traffic builder (or a worker).
        seeds = tuple(_coerce_int("evaluation.seeds", s, 0) for s in raw)
        if not seeds:
            raise SpecValidationError("evaluation.seeds must name at least one seed")
        duplicates = sorted({s for s in seeds if seeds.count(s) > 1})
        if duplicates:
            raise SpecValidationError(
                f"evaluation.seeds must be unique (seeds key per-seed results and "
                f"sweep sub-runs); duplicated: {duplicates}"
            )
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "seeds", seeds)

    def to_dict(self) -> dict:
        # ``backend`` is emitted only when it deviates from its default:
        # the dict form feeds ``canonical_json`` → ``spec_hash``, and an
        # always-present key would silently orphan every pre-existing
        # ResultStore entry (sweep resume would re-execute everything).
        # ``from_dict`` restores an omitted key to its default.
        data = {"metrics": list(self.metrics), "seeds": list(self.seeds)}
        if self.backend != "auto":
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvaluationSpec":
        _reject_unknown_keys(cls, data, "evaluation")
        return cls(**data)


@dataclass(frozen=True)
class DynamicsSpec:
    """The dynamics axis: a time-varying network model plus its parameters.

    The named component (``@register_dynamics``) builds a
    :class:`~repro.graphs.dynamics.NetworkTimeline` per evaluated network —
    the per-step schedule of perturbed variants (and optional demand
    overlay) the evaluation scores against.  ``"static"`` is the identity
    model: a scenario constructed with it normalises to ``dynamics=None``
    (the default), so explicit-static and unset specs are *equal* — same
    dict form, same spec hash, same execution path, bit for bit.
    """

    name: str = "static"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in DYNAMICS:
            raise UnknownComponentError("dynamics model", self.name, DYNAMICS.names())
        object.__setattr__(self, "name", str(self.name).lower())
        object.__setattr__(self, "params", _check_params("dynamics", self.params))
        if self.name == "static" and self.params:
            raise SpecValidationError(
                f"dynamics 'static' is the identity model and takes no params, "
                f"got {sorted(self.params)}"
            )

    @property
    def is_static(self) -> bool:
        return self.name == "static"

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data) -> "DynamicsSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, Mapping):
            raise SpecValidationError(
                f"dynamics must be a component name or mapping, got {type(data).__name__}"
            )
        _reject_unknown_keys(cls, data, "dynamics")
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment: six axes plus a name.

    Frozen, eagerly validated, and losslessly serialisable: equality is
    preserved through ``to_dict -> json.dumps -> json.loads -> from_dict``.
    The ``dynamics`` axis defaults to ``None`` (a static network) and is
    omitted from the dict form at that default, so every pre-existing spec
    hash — and with it every stored result — is unchanged.
    """

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    routing: RoutingSpec = field(default_factory=RoutingSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    dynamics: Optional[DynamicsSpec] = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SpecValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        coerce = {
            "topology": TopologySpec,
            "traffic": TrafficSpec,
            "routing": RoutingSpec,
            "training": TrainingSpec,
            "evaluation": EvaluationSpec,
        }
        for attr, cls in coerce.items():
            value = getattr(self, attr)
            if isinstance(value, Mapping):
                object.__setattr__(self, attr, cls.from_dict(value))
            elif not isinstance(value, cls):
                raise SpecValidationError(
                    f"{attr} must be a {cls.__name__} or mapping, got {type(value).__name__}"
                )
        dynamics = self.dynamics
        if isinstance(dynamics, (Mapping, str)):
            dynamics = DynamicsSpec.from_dict(dynamics)
        if dynamics is not None and not isinstance(dynamics, DynamicsSpec):
            raise SpecValidationError(
                f"dynamics must be a DynamicsSpec, mapping, component name or None, "
                f"got {type(dynamics).__name__}"
            )
        if dynamics is not None and dynamics.is_static:
            # Explicit 'static' IS the default: normalising it to None here
            # makes the two spellings equal specs with equal hashes, and
            # routes both through the exact static evaluation code path.
            dynamics = None
        object.__setattr__(self, "dynamics", dynamics)
        if self.dynamics is not None:
            iterative = [
                p.key
                for p in self.routing.policies
                if getattr(POLICIES.get(p.name), "iterative", False)
            ]
            if iterative:
                raise SpecValidationError(
                    f"dynamics {self.dynamics.name!r} cannot evaluate iterative "
                    f"policies {iterative}: one environment step spans many "
                    "edge sub-steps, so there is no single per-step network "
                    "to score against — use one-shot policies instead"
                )
        if "throughput" not in self.evaluation.metrics and not (
            self.routing.policies or self.routing.strategies
        ):
            raise SpecValidationError(
                "routing must name at least one policy or strategy to evaluate"
            )
        if any(m in self.evaluation.metrics for m in ("learning_curve", "throughput")):
            if not self.routing.policies:
                raise SpecValidationError(
                    "learning_curve/throughput metrics require at least one routing policy"
                )
        if "utilisation_ratio" in self.evaluation.metrics and self.traffic.num_test == 0:
            raise SpecValidationError(
                "the utilisation_ratio metric needs held-out sequences; "
                "traffic.num_test must be >= 1 (or None to use the scale's value)"
            )

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "description": self.description,
            "topology": self.topology.to_dict(),
            "traffic": self.traffic.to_dict(),
            "routing": self.routing.to_dict(),
            "training": self.training.to_dict(),
            "evaluation": self.evaluation.to_dict(),
        }
        # Omitted at the default (None, i.e. static) per the spec-hash
        # stability rule: an always-present key would silently orphan every
        # pre-existing ResultStore entry.
        if self.dynamics is not None:
            data["dynamics"] = self.dynamics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise SpecValidationError(f"scenario spec must be a mapping, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, "scenario spec")
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """Deterministic compact JSON (sorted keys, no whitespace).

        This is the hashing pre-image for :meth:`spec_hash`: two specs that
        validate to the same dict form always canonicalise identically,
        regardless of construction order or JSON formatting.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json`.

        Content-addresses this spec in :class:`repro.api.store.ResultStore`
        and keys sweep sub-run deduplication.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"scenario spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- functional updates --------------------------------------------

    def with_updates(self, updates: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied (the CLI ``--set`` path).

        Keys are dotted paths into the dict form (``traffic.model``,
        ``training.overrides.total_timesteps``, ``topology.params.seed``);
        the updated dict re-validates through :meth:`from_dict`.  Paths may
        create missing mapping levels but never descend *through* an
        existing non-mapping value — to change a list (e.g.
        ``routing.policies``) replace it wholesale.
        """
        data = self.to_dict()
        for path, value in updates.items():
            parts = path.split(".")
            cursor = data
            for depth, part in enumerate(parts[:-1]):
                if part not in cursor:
                    cursor[part] = {}
                elif not isinstance(cursor[part], dict):
                    prefix = ".".join(parts[: depth + 1])
                    raise SpecValidationError(
                        f"cannot apply override {path!r}: {prefix!r} is "
                        f"{type(cursor[part]).__name__}-valued, not a mapping "
                        f"(replace {prefix!r} wholesale instead)"
                    )
                cursor = cursor[part]
            cursor[parts[-1]] = value
        return ScenarioSpec.from_dict(data)


__all__ = [
    "KNOWN_METRICS",
    "SpecValidationError",
    "TopologySpec",
    "TrafficSpec",
    "PolicySpec",
    "StrategySpec",
    "RoutingSpec",
    "TrainingSpec",
    "EvaluationSpec",
    "DynamicsSpec",
    "ScenarioSpec",
]
