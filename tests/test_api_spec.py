"""Tests for the declarative scenario API: registries, specs, round-trips."""

import json

import numpy as np
import pytest

from repro import api
from repro.api.registry import Registry
from repro.experiments.config import scaled


def roundtrip(spec: api.ScenarioSpec) -> api.ScenarioSpec:
    return api.ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


class TestRegistry:
    def test_builtin_axes_populated(self):
        assert {"abilene", "nsfnet", "modification_pool", "link_failure_sweep"} <= set(
            api.TOPOLOGIES.names()
        )
        assert set(api.TRAFFIC_MODELS.names()) == {"bimodal", "gravity", "sparse", "uniform"}
        assert {"shortest_path", "ecmp", "oblivious"} <= set(api.STRATEGIES.names())
        assert set(api.POLICIES.names()) == {"gnn", "gnn_iterative", "mlp"}

    def test_unknown_key_names_valid_choices(self):
        with pytest.raises(api.UnknownComponentError, match="choose from"):
            api.TOPOLOGIES.get("nonesuch")

    def test_get_is_case_insensitive(self):
        assert api.TOPOLOGIES.get("Abilene") is api.TOPOLOGIES.get("abilene")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", lambda: 1, description="one")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", lambda: 2)

    def test_items_expose_descriptions(self):
        rows = dict(api.STRATEGIES.items())
        assert "shortest" in rows["shortest_path"]

    def test_registry_for_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown registry axis"):
            api.registry_for("widgets")


class TestScaledOverrides:
    def test_unknown_key_raises_value_error_naming_key(self):
        with pytest.raises(ValueError) as exc:
            scaled("quick", bad_key=1)
        assert "bad_key" in str(exc.value)
        assert "total_timesteps" in str(exc.value)  # lists valid fields

    def test_known_override_still_works(self):
        assert scaled("quick", total_timesteps=999).total_timesteps == 999


class TestSpecValidation:
    def test_unknown_topology(self):
        with pytest.raises(api.UnknownComponentError, match="unknown topology"):
            api.TopologySpec(name="moebius-strip")

    def test_unknown_traffic_model(self):
        with pytest.raises(api.UnknownComponentError, match="unknown traffic model"):
            api.TrafficSpec(model="fractal")

    def test_unknown_strategy_and_policy(self):
        with pytest.raises(api.UnknownComponentError, match="unknown routing strategy"):
            api.StrategySpec(name="teleport")
        with pytest.raises(api.UnknownComponentError, match="unknown policy"):
            api.PolicySpec(name="transformer")

    def test_negative_timesteps_caught_eagerly(self):
        with pytest.raises(api.SpecValidationError, match="total_timesteps"):
            api.TrainingSpec(preset="quick", overrides={"total_timesteps": -5})

    def test_unknown_training_override_caught_eagerly(self):
        with pytest.raises(api.SpecValidationError, match="bad_key"):
            api.TrainingSpec(preset="quick", overrides={"bad_key": 3})

    def test_bad_nested_field_rejected(self):
        with pytest.raises(api.SpecValidationError, match=r"\['bogus'\].*traffic"):
            api.ScenarioSpec.from_dict(
                {"name": "x", "traffic": {"model": "bimodal", "bogus": 1}}
            )

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(api.SpecValidationError, match="scenario spec"):
            api.ScenarioSpec.from_dict({"name": "x", "topo": {}})

    def test_unknown_metric_rejected(self):
        with pytest.raises(api.SpecValidationError, match="unknown metric"):
            api.EvaluationSpec(metrics=("vibes",))

    def test_empty_routing_rejected(self):
        with pytest.raises(api.SpecValidationError, match="at least one policy or strategy"):
            api.ScenarioSpec(name="empty")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(api.SpecValidationError, match="unique labels"):
            api.RoutingSpec(strategies=("shortest_path", "shortest_path"))

    def test_duplicate_components_allowed_with_labels(self):
        routing = api.RoutingSpec(
            strategies=(
                {"name": "shortest_path", "label": "sp-unit"},
                {"name": "shortest_path", "label": "sp-capacity", "params": {"weights": [1.0]}},
            )
        )
        assert [s.key for s in routing.strategies] == ["sp-unit", "sp-capacity"]

    def test_non_json_params_rejected(self):
        with pytest.raises(api.SpecValidationError, match="JSON-serialisable"):
            api.TopologySpec(name="abilene", params={"capacity": object()})

    def test_zero_test_sequences_with_ratio_metric_rejected(self):
        with pytest.raises(api.SpecValidationError, match="num_test"):
            api.ScenarioSpec(
                name="x",
                traffic={"model": "bimodal", "num_test": 0},
                routing={"strategies": ["shortest_path"]},
            )

    def test_bad_json_text(self):
        with pytest.raises(api.SpecValidationError, match="not valid JSON"):
            api.ScenarioSpec.from_json("{nope")

    @pytest.mark.parametrize("field", ["length", "cycle_length", "num_train"])
    def test_explicit_zero_traffic_field_rejected(self, field):
        # An explicit 0 must fail validation, never silently fall back to
        # the training scale's value (the old truthiness-fallback bug).
        with pytest.raises(api.SpecValidationError, match=f"traffic.{field}"):
            api.TrafficSpec(**{field: 0})

    def test_bool_traffic_field_rejected(self):
        with pytest.raises(api.SpecValidationError, match="traffic.length"):
            api.TrafficSpec(length=True)

    def test_numpy_integer_traffic_fields_coerced(self):
        spec = api.TrafficSpec(length=np.int64(8), num_train=np.int64(2))
        assert spec.length == 8 and type(spec.length) is int
        assert spec.num_train == 2 and type(spec.num_train) is int
        json.dumps(spec.to_dict())  # JSON-clean after coercion

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(api.SpecValidationError, match="duplicated: \\[3\\]"):
            api.EvaluationSpec(seeds=(0, 3, 3))

    def test_numpy_integer_seeds_coerced(self):
        spec = api.EvaluationSpec(seeds=(np.int64(0), np.int64(5)))
        assert spec.seeds == (0, 5)
        assert all(type(s) is int for s in spec.seeds)
        json.dumps(spec.to_dict())

    def test_scalar_seed_wrapped(self):
        # ``--grid evaluation.seeds=0,1`` assigns one scalar per point.
        assert api.EvaluationSpec(seeds=3).seeds == (3,)

    def test_non_integer_seeds_rejected(self):
        for bad in ((0, 1.5), (), "ab", (True,)):
            with pytest.raises(api.SpecValidationError, match="seeds"):
                api.EvaluationSpec(seeds=bad)

    def test_negative_seeds_rejected_at_validation(self):
        # numpy's SeedSequence rejects negative entropy; fail here with the
        # field named, not deep inside a traffic builder (or a worker).
        with pytest.raises(api.SpecValidationError, match="evaluation.seeds"):
            api.EvaluationSpec(seeds=(0, -1))

    def test_backend_defaults_to_auto(self):
        assert api.EvaluationSpec().backend == "auto"

    @pytest.mark.parametrize("backend", ["auto", "dense", "sparse", "SPARSE"])
    def test_valid_backends_accepted_lowercased(self, backend):
        assert api.EvaluationSpec(backend=backend).backend == backend.lower()

    @pytest.mark.parametrize("backend", ["cuda", "", 3, None])
    def test_invalid_backend_rejected(self, backend):
        with pytest.raises(api.SpecValidationError, match="evaluation.backend"):
            api.EvaluationSpec(backend=backend)

    def test_default_backend_omitted_from_dict_form(self):
        # The dict form feeds spec_hash: the default must serialise exactly
        # as before the field existed, so PR-3 ResultStore entries (and
        # sweep resume) stay valid across the upgrade.
        assert "backend" not in api.EvaluationSpec().to_dict()
        assert api.EvaluationSpec(backend="sparse").to_dict()["backend"] == "sparse"
        spec = api.ScenarioSpec(name="h", routing={"strategies": ["shortest_path"]})
        assert roundtrip(spec) == spec
        assert '"backend"' not in spec.canonical_json()

    def test_backend_roundtrips(self):
        spec = api.ScenarioSpec(
            name="be",
            routing={"strategies": ["shortest_path"]},
            evaluation={"metrics": ["utilisation_ratio"], "seeds": [0], "backend": "sparse"},
        )
        assert roundtrip(spec) == spec
        assert roundtrip(spec).evaluation.backend == "sparse"

    def test_backend_settable_via_dotted_override(self):
        spec = api.get_scenario("fig6").with_updates({"evaluation.backend": "dense"})
        assert spec.evaluation.backend == "dense"

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "two", None, 1, 2])
    def test_invalid_lp_workers_rejected(self, bad):
        # The LP warm-up has one serial path, so ``lp_workers`` is no field:
        # an evaluation mapping carrying it fails whatever its value.
        data = api.ScenarioSpec(name="lw", routing={"strategies": ["shortest_path"]}).to_dict()
        data["evaluation"]["lp_workers"] = bad
        with pytest.raises(api.SpecValidationError, match="lp_workers"):
            api.ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "four", None, 1, 4])
    def test_invalid_n_envs_rejected(self, bad):
        # PPO trains on one environment, so ``n_envs`` is no field: a
        # training mapping carrying it fails whatever its value, from a
        # dict and from a ``--set`` override alike.
        data = api.ScenarioSpec(name="ne", routing={"strategies": ["shortest_path"]}).to_dict()
        data["training"]["n_envs"] = bad
        with pytest.raises(api.SpecValidationError, match="n_envs"):
            api.ScenarioSpec.from_dict(data)
        with pytest.raises(api.SpecValidationError, match="n_envs"):
            api.get_scenario("fig6").with_updates({"training.n_envs": bad})

    def test_large_topology_presets_pin_or_auto_select_sparse(self):
        assert api.get_scenario("zoo-large-sparse").evaluation.backend == "sparse"
        assert api.get_scenario("zoo-kdl-sparse").evaluation.backend == "sparse"
        # random-sparse-240 leaves "auto" on purpose: the selection rule
        # itself must pick sparse for its 240-node low-density topology.
        spec = api.get_scenario("random-sparse-240")
        assert spec.evaluation.backend == "auto"
        from repro.engine import select_backend

        built = api.TOPOLOGIES.get(spec.topology.name)(**spec.topology.params)
        assert select_backend(built) == "sparse"

    def test_strings_coerce_to_component_specs(self):
        spec = api.ScenarioSpec(
            name="coerce",
            routing={"policies": ["gnn"], "strategies": ["ecmp"]},
        )
        assert spec.routing.policies[0] == api.PolicySpec("gnn")
        assert spec.routing.strategies[0] == api.StrategySpec("ecmp")


class TestRoundTrip:
    @pytest.mark.parametrize("name", api.scenario_names())
    def test_every_bundled_preset_roundtrips(self, name):
        spec = api.get_scenario(name)
        assert roundtrip(spec) == spec
        assert api.ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("topology", api.TOPOLOGIES.names())
    def test_every_topology_roundtrips(self, topology):
        spec = api.ScenarioSpec(
            name=f"rt-{topology}",
            topology={"name": topology},
            routing={"strategies": ["shortest_path"]},
        )
        assert roundtrip(spec) == spec

    @pytest.mark.parametrize("model", api.TRAFFIC_MODELS.names())
    def test_every_traffic_model_roundtrips(self, model):
        spec = api.ScenarioSpec(
            name=f"rt-{model}",
            traffic={"model": model},
            routing={"strategies": ["shortest_path"]},
        )
        assert roundtrip(spec) == spec

    @pytest.mark.parametrize("strategy", api.STRATEGIES.names())
    def test_every_strategy_roundtrips(self, strategy):
        spec = api.ScenarioSpec(
            name=f"rt-{strategy}", routing={"strategies": [strategy]}
        )
        assert roundtrip(spec) == spec

    @pytest.mark.parametrize("policy", api.POLICIES.names())
    def test_every_policy_roundtrips(self, policy):
        spec = api.ScenarioSpec(
            name=f"rt-{policy}", routing={"policies": [policy]}
        )
        assert roundtrip(spec) == spec

    def test_training_scale_survives_tuple_fields(self):
        spec = api.ScenarioSpec(
            name="tuples",
            routing={"strategies": ["shortest_path"]},
            training={"preset": "quick", "overrides": {"mlp_hidden": [32, 32]}},
        )
        again = roundtrip(spec)
        assert again == spec
        assert again.training.scale().mlp_hidden == (32, 32)


class TestSpecHash:
    def test_equal_specs_hash_identically_across_construction_paths(self):
        built = api.ScenarioSpec(
            name="hash-me",
            routing={"strategies": ["shortest_path"]},
            evaluation={"metrics": ["utilisation_ratio"], "seeds": [0, 1]},
        )
        rebuilt = roundtrip(built)
        assert built.canonical_json() == rebuilt.canonical_json()
        assert built.spec_hash() == rebuilt.spec_hash()
        assert len(built.spec_hash()) == 64  # sha256 hex

    def test_any_field_change_changes_the_hash(self):
        base = api.get_scenario("fig6")
        assert base.spec_hash() != base.with_updates({"evaluation.seeds": [1]}).spec_hash()
        assert base.spec_hash() != base.with_updates({"traffic.model": "gravity"}).spec_hash()
        assert (
            base.spec_hash()
            != base.with_updates({"training.overrides.total_timesteps": 512}).spec_hash()
        )


class TestSpecUpdates:
    def test_with_updates_dotted_paths(self):
        spec = api.get_scenario("fig6").with_updates(
            {
                "traffic.model": "gravity",
                "training.overrides.total_timesteps": 512,
                "evaluation.seeds": [7],
            }
        )
        assert spec.traffic.model == "gravity"
        assert spec.training.scale().total_timesteps == 512
        assert spec.evaluation.seeds == (7,)

    def test_with_updates_training_shorthand(self):
        spec = api.get_scenario("fig6").with_updates({"training.total_timesteps": 256})
        assert spec.training.scale().total_timesteps == 256

    def test_with_updates_revalidates(self):
        with pytest.raises(api.UnknownComponentError):
            api.get_scenario("fig6").with_updates({"traffic.model": "fractal"})

    def test_with_updates_refuses_descent_through_non_mapping(self):
        spec = api.get_scenario("fig6")
        with pytest.raises(api.SpecValidationError, match="routing.policies.*not a mapping"):
            spec.with_updates({"routing.policies.0.name": "mlp"})
        with pytest.raises(api.SpecValidationError, match="'name' is str-valued"):
            spec.with_updates({"name.sub": 1})

    def test_with_updates_replaces_lists_wholesale(self):
        spec = api.get_scenario("fig6").with_updates({"routing.policies": ["gnn"]})
        assert [p.name for p in spec.routing.policies] == ["gnn"]


class TestScenarioRegistry:
    def test_get_scenario_unknown(self):
        with pytest.raises(api.UnknownComponentError, match="unknown scenario"):
            api.get_scenario("fig99")

    def test_register_scenario_spec_object(self):
        spec = api.ScenarioSpec(
            name="test-registered-spec",
            description="a registered test spec",
            routing={"strategies": ["shortest_path"]},
        )
        try:
            api.register_scenario(spec)
            assert api.get_scenario("test-registered-spec") == spec
            assert "test-registered-spec" in api.scenario_names()
        finally:
            api.SCENARIOS._entries.pop("test-registered-spec", None)
