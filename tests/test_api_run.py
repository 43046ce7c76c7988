"""End-to-end tests for ``repro.api.run`` and the scenario CLI.

Covers: the new scenarios running from JSON files through ``runner run``,
multi-seed pooling, and builder-level failures surfacing as validation
errors.
"""

import numpy as np
import pytest

from repro import api
from repro.api.presets import (
    link_failure_sweep_spec,
    strategy_grid_spec,
    zoo_gravity_burst_spec,
)
from repro.experiments.config import get_preset
from repro.experiments.runner import main

#: Overrides shrinking any quick-preset scenario to test size while keeping
#: its structure (topology pools, strategy grids, multi-seed evaluation).
TINY_UPDATES = {
    "training.overrides.total_timesteps": 64,
    "training.overrides.n_steps": 32,
    "training.overrides.batch_size": 16,
    "training.overrides.n_epochs": 1,
    "training.overrides.latent": 4,
    "training.overrides.hidden": 8,
    "training.overrides.num_processing_steps": 1,
    "traffic.length": 8,
    "traffic.cycle_length": 4,
    "traffic.num_train": 1,
    "traffic.num_test": 1,
}


def tiny(spec: api.ScenarioSpec) -> api.ScenarioSpec:
    return spec.with_updates(TINY_UPDATES)


class TestNewScenariosFromJSON:
    """The API-only scenarios must run end-to-end from JSON via the CLI."""

    def _run_from_json(self, spec, tmp_path, capsys) -> str:
        path = tmp_path / f"{spec.name}.json"
        path.write_text(spec.to_json())
        assert main(["run", str(path)]) == 0
        return capsys.readouterr().out

    def test_zoo_gravity_burst(self, tmp_path, capsys):
        out = self._run_from_json(tiny(zoo_gravity_burst_spec()), tmp_path, capsys)
        assert "zoo-gravity-burst" in out
        for label in ("gnn", "shortest_path", "ecmp"):
            assert label in out

    def test_link_failure_sweep(self, tmp_path, capsys):
        out = self._run_from_json(tiny(link_failure_sweep_spec()), tmp_path, capsys)
        assert "link-failure-sweep" in out and "gnn" in out

    def test_strategy_grid_multi_seed(self, tmp_path, capsys):
        out = self._run_from_json(tiny(strategy_grid_spec()), tmp_path, capsys)
        assert "strategy-grid" in out
        assert "pooled over seeds [0, 1]" in out
        for label in ("gnn_iterative", "oblivious", "capacity_proportional"):
            assert label in out


class TestSparseBackendScenarios:
    """The large-topology presets exercise the sparse solver end-to-end."""

    def test_zoo_large_sparse_runs_through_cli(self, capsys):
        assert main(["run", "zoo-large-sparse", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "zoo-large-sparse" in out
        assert "shortest_path" in out and "ecmp" in out

    def test_backend_choice_does_not_change_results(self):
        base = api.get_scenario("zoo-large-sparse")
        dense = api.run(base.with_updates({"evaluation.backend": "dense"}))
        sparse = api.run(base.with_updates({"evaluation.backend": "sparse"}))
        for label in ("shortest_path", "ecmp"):
            np.testing.assert_allclose(
                sparse.strategies[label].ratios,
                dense.strategies[label].ratios,
                rtol=1e-8,
            )


class TestRunSemantics:
    def test_multi_seed_pools_ratios(self):
        spec = api.ScenarioSpec(
            name="pooling",
            traffic={"model": "bimodal", "length": 8, "cycle_length": 4,
                     "num_train": 1, "num_test": 1},
            routing={"strategies": ["shortest_path"]},
            training={"preset": "quick"},
            evaluation={"metrics": ["utilisation_ratio"], "seeds": [0, 1]},
        )
        result = api.run(spec)
        pooled = result.strategies["shortest_path"]
        per_seed = [result.per_seed[s]["shortest_path"] for s in (0, 1)]
        assert pooled.count == sum(r.count for r in per_seed)
        assert pooled.ratios == per_seed[0].ratios + per_seed[1].ratios
        # Different seeds draw different demand sequences.
        assert per_seed[0].ratios != per_seed[1].ratios

    def test_link_failure_pool_builder(self):
        train, test = api.TOPOLOGIES.get("link_failure_sweep")(
            base="abilene", num_failures=3, seed=0
        )
        assert len(train) == 1 and len(test) == 4
        assert test[0] is train[0]  # intact baseline evaluated alongside
        base_edges = train[0].num_edges
        for failed in test[1:]:
            assert failed.num_edges == base_edges - 2  # one undirected link gone
        # Every failure variant removes a *distinct* link.
        edge_sets = [frozenset(tuple(e) for e in net.edges) for net in test[1:]]
        assert len(set(edge_sets)) == len(edge_sets)

    def test_link_failure_pool_exhausts_distinct_links(self):
        with pytest.raises(api.SpecValidationError, match="distinct removable"):
            api.TOPOLOGIES.get("link_failure_sweep")(base="abilene", num_failures=99, seed=0)

    def test_no_curves_when_metric_not_requested(self):
        spec = tiny(
            api.ScenarioSpec(
                name="ratio-only",
                routing={"policies": ["gnn"]},
                evaluation={"metrics": ["utilisation_ratio"], "seeds": [0]},
            )
        )
        result = api.run(spec)
        assert result.curves == {}  # curves only appear for 'learning_curve'
        assert result.policies["gnn"].count > 0

    def test_registered_traffic_model_runs_end_to_end(self):
        @api.register_traffic("constant-test")
        def constant(num_nodes, seed=None, value=100.0):
            matrix = np.full((num_nodes, num_nodes), float(value))
            np.fill_diagonal(matrix, 0.0)
            return matrix

        try:
            spec = api.ScenarioSpec(
                name="constant-traffic",
                traffic={"model": "constant-test", "params": {"value": 50.0},
                         "length": 6, "cycle_length": 2, "num_train": 1, "num_test": 1},
                routing={"strategies": ["shortest_path", "ecmp"]},
            )
            result = api.run(spec)
            assert result.strategies["shortest_path"].count == 6 - get_preset(
                "quick"
            ).memory_length
            assert result.strategies["ecmp"].mean >= 1.0 - 1e-6
        finally:
            api.TRAFFIC_MODELS._entries.pop("constant-test", None)

    def test_mlp_rejects_multi_topology_scenario(self):
        spec = tiny(link_failure_sweep_spec()).with_updates(
            {"routing.policies": ["mlp"]}
        )
        with pytest.raises(api.SpecValidationError, match="single-topology"):
            api.run(spec)

    def test_bad_builder_params_surface_as_validation_error(self):
        spec = api.ScenarioSpec(
            name="bad-params",
            topology={"name": "abilene", "params": {"wheels": 4}},
            routing={"strategies": ["shortest_path"]},
        )
        with pytest.raises(api.SpecValidationError, match="rejected params"):
            api.run(spec)

    def test_plain_dict_accepted_by_run(self):
        result = api.run(
            {
                "name": "dict-input",
                "traffic": {"length": 6, "cycle_length": 2, "num_train": 1, "num_test": 1},
                "routing": {"strategies": ["shortest_path"]},
            }
        )
        assert result.strategies["shortest_path"].count > 0

    def test_result_rows_and_ratio_accessors(self):
        result = api.run(
            {
                "name": "rows",
                "traffic": {"length": 6, "cycle_length": 2, "num_train": 1, "num_test": 1},
                "routing": {"strategies": ["shortest_path", "ecmp"]},
            }
        )
        assert [label for label, _ in result.rows()] == ["shortest_path", "ecmp"]
        assert result.ratio("ecmp") == result.strategies["ecmp"].mean
        with pytest.raises(KeyError, match="no routing entry"):
            result.ratio("unknown")
