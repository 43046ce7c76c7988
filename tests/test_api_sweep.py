"""Tests for the parallel sweep executor and the spec-hashed result store.

The load-bearing guarantees: ``sweep(spec, workers=k)`` is bit-identical
to ``run(spec)`` for any worker count, a ``ScenarioResult`` survives the
JSON round trip losslessly, and a second sweep against the same store
directory performs zero re-executions.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.api.presets import fig6_spec, fig7_spec, fig8_modifications_spec
from repro.api.results import ScenarioResult, merge_results
from repro.api.store import ResultStore
from repro.api.sweep import decompose, expand_grid, sweep
from repro.experiments.config import get_preset
from repro.experiments.runner import main

#: Shrinks any quick-preset scenario to test size (mirrors test_api_run).
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


def strategies_spec(name="sweep-fast", seeds=(0, 1), model="bimodal") -> api.ScenarioSpec:
    """A training-free scenario: cheap enough to run many times per test."""
    return api.ScenarioSpec(
        name=name,
        traffic={"model": model, "length": 8, "cycle_length": 4,
                 "num_train": 1, "num_test": 1},
        routing={"strategies": ["shortest_path", "ecmp"]},
        evaluation={"metrics": ["utilisation_ratio"], "seeds": list(seeds)},
    )


def sub_spec(seed=0, **kwargs) -> api.ScenarioSpec:
    """A cheap, training-free single-seed sub-spec (one sweep job)."""
    return decompose(strategies_spec(seeds=(seed,), **kwargs))[0][1]


def assert_results_equal(a: ScenarioResult, b: ScenarioResult) -> None:
    """Bit-equality across every field ``run``/``sweep`` can populate."""
    assert set(a.policies) == set(b.policies)
    for label in a.policies:
        assert a.policies[label].ratios == b.policies[label].ratios
    assert set(a.strategies) == set(b.strategies)
    for label in a.strategies:
        assert a.strategies[label].ratios == b.strategies[label].ratios
    assert set(a.per_seed) == set(b.per_seed)
    for seed in a.per_seed:
        assert set(a.per_seed[seed]) == set(b.per_seed[seed])
        for label in a.per_seed[seed]:
            assert a.per_seed[seed][label].ratios == b.per_seed[seed][label].ratios
    assert set(a.curves) == set(b.curves)
    for label in a.curves:
        assert len(a.curves[label]) == len(b.curves[label])
        for ca, cb in zip(a.curves[label], b.curves[label]):
            assert ca.timesteps == cb.timesteps
            assert ca.mean_episode_rewards == cb.mean_episode_rewards


class TestGridExpansion:
    def test_empty_grid_is_single_base_point(self):
        assert expand_grid(None) == [{}]
        assert expand_grid({}) == [{}]

    def test_cross_product_order(self):
        grid = {"a": [1, 2], "b": ["x", "y"]}
        assert expand_grid(grid) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_bad_axes_rejected(self):
        with pytest.raises(api.SpecValidationError, match="must be a list"):
            expand_grid({"a": "xy"})
        with pytest.raises(api.SpecValidationError, match="must not be empty"):
            expand_grid({"a": []})


class TestDecompose:
    def test_one_single_seed_subspec_per_seed(self):
        spec = strategies_spec(seeds=(3, 7))
        parts = decompose(spec)
        assert [seed for seed, _ in parts] == [3, 7]
        for seed, sub in parts:
            assert sub.evaluation.seeds == (seed,)
            # Everything but the seed axis is untouched.
            assert sub.traffic == spec.traffic
            assert sub.routing == spec.routing

    def test_distinct_seeds_hash_distinctly(self):
        hashes = {sub.spec_hash() for _, sub in decompose(strategies_spec(seeds=(0, 1, 2)))}
        assert len(hashes) == 3


class TestSweepRunEquivalence:
    """sweep(spec, workers=k) must be bit-identical to run(spec)."""

    def test_multi_seed_strategies_pool_identically(self):
        spec = strategies_spec(seeds=(0, 1, 2))
        direct = api.run(spec)
        fanned = sweep(spec, workers=2)
        assert_results_equal(fanned.result, direct)

    def test_fig6_tiny_parallel_matches_run(self):
        spec = tiny(fig6_spec())
        direct = api.run(spec)
        fanned = sweep(spec, workers=2)
        assert_results_equal(fanned.result, direct)

    def test_fig7_tiny_curves_match_run(self):
        spec = tiny(fig7_spec())
        direct = api.run(spec)
        fanned = sweep(spec, workers=2)
        assert_results_equal(fanned.result, direct)

    def test_fig8_tiny_pool_topology_matches_run(self):
        spec = tiny(fig8_modifications_spec())
        direct = api.run(spec)
        fanned = sweep(spec, workers=1)
        assert_results_equal(fanned.result, direct)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "preset",
        [fig6_spec, fig7_spec, fig8_modifications_spec],
        ids=["fig6", "fig7", "fig8-modifications"],
    )
    def test_quick_presets_parallel_match_run(self, preset):
        spec = preset(preset="quick", seed=0)
        direct = api.run(spec)
        fanned = sweep(spec, workers=2)
        assert_results_equal(fanned.result, direct)

    def test_grid_point_matches_directly_updated_run(self):
        base = strategies_spec(seeds=(0,))
        fanned = sweep(base, grid={"traffic.model": ["bimodal", "gravity"]})
        assert [p.overrides for p in fanned.points] == [
            {"traffic.model": "bimodal"},
            {"traffic.model": "gravity"},
        ]
        for point in fanned.points:
            assert_results_equal(point.result, api.run(point.spec))

    def test_single_point_result_accessor_guards_grids(self):
        fanned = sweep(strategies_spec(seeds=(0,)), grid={"evaluation.seeds": [0, 1]})
        with pytest.raises(ValueError, match="2 points"):
            fanned.result

    def test_bad_workers_rejected(self):
        # A bool is an int subclass: True would silently run in-process.
        for workers in (0, True, 1.5):
            with pytest.raises(api.SpecValidationError, match="workers"):
                sweep(strategies_spec(), workers=workers)


class TestResultRoundTrip:
    def test_run_result_json_round_trip(self):
        direct = api.run(strategies_spec(seeds=(0, 1)))
        restored = ScenarioResult.from_json(direct.to_json())
        assert_results_equal(restored, direct)
        assert restored.spec == direct.spec

    def test_synthetic_result_with_all_fields(self):
        spec = strategies_spec(seeds=(0,))
        curve = api.LearningCurve(
            label="gnn", timesteps=(32, 64), mean_episode_rewards=(-2.5, -1.25)
        )
        original = ScenarioResult(
            spec=spec,
            policies={"gnn": api.EvaluationResult((1.125, float(np.float64(1.2))))},
            strategies={"shortest_path": api.EvaluationResult((1.5,))},
            per_seed={0: {"gnn": api.EvaluationResult((1.125, 1.2))}},
            curves={"gnn": (curve,)},
            throughput={"gnn": 71.5},
        )
        restored = ScenarioResult.from_json(original.to_json())
        assert_results_equal(restored, original)
        assert restored.throughput == original.throughput
        assert restored.per_seed[0]["gnn"].ratios == (1.125, 1.2)

    def test_merge_of_decomposed_parts_equals_run(self):
        spec = strategies_spec(seeds=(0, 1))
        parts = [api.run(sub) for _, sub in decompose(spec)]
        assert_results_equal(merge_results(spec, parts), api.run(spec))


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        result = api.run(spec)
        store = ResultStore(tmp_path)
        assert store.get(spec) is None and spec not in store
        path = store.put(spec, result)
        assert path.is_file() and spec in store
        assert store.hashes() == [spec.spec_hash()]
        assert_results_equal(store.get(spec), result)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        store.put(spec, api.run(spec))
        store.path_for(spec).write_text("{truncated")
        assert store.get(spec) is None

    def test_membership_agrees_with_readability(self, tmp_path):
        # Regression: __contains__ used to report any existing file as a
        # hit while get() treated a truncated entry as a miss.
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        store.put(spec, api.run(spec))
        assert spec in store
        store.path_for(spec).write_text("{truncated")
        assert spec not in store
        store.path_for(spec).write_text(json.dumps({"format": 999, "result": {}}))
        assert spec not in store

    def test_wrong_format_reads_as_miss(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        store.put(spec, api.run(spec))
        entry = json.loads(store.path_for(spec).read_text())
        entry["format"] = 999
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        spec = strategies_spec(seeds=(0, 1))
        first = sweep(spec, workers=2, store=ResultStore(tmp_path))
        assert first.cached_jobs == 0 and first.executions == 2
        second = sweep(spec, workers=2, store=ResultStore(tmp_path))
        assert second.executions == 0 and second.cached_jobs == 2
        assert_results_equal(second.result, first.result)

    def test_partial_store_resumes_only_missing_seeds(self, tmp_path):
        # Simulate an interrupted sweep: one seed's sub-run already landed.
        spec = strategies_spec(seeds=(0, 1))
        store = ResultStore(tmp_path)
        _, sub0 = decompose(spec)[0]
        store.put(sub0, api.run(sub0))
        resumed = sweep(spec, store=store)
        assert resumed.points[0].cached_seeds == (0,)
        assert resumed.points[0].executed_seeds == (1,)
        assert_results_equal(resumed.result, api.run(spec))

    def test_no_cache_reexecutes_but_still_writes(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        sweep(spec, store=store)
        forced = sweep(spec, store=store, use_cache=False)
        assert forced.cached_jobs == 0 and forced.executions == 1
        assert len(store) == 1

    def test_identical_grid_points_execute_once(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        fanned = sweep(spec, grid={"traffic.length": [8, 8]}, store=ResultStore(tmp_path))
        assert len(fanned.points) == 2
        assert fanned.executions == 1  # deduplicated by spec hash
        assert_results_equal(fanned.points[0].result, fanned.points[1].result)

    def test_store_accepts_path_argument(self, tmp_path):
        fanned = sweep(strategies_spec(seeds=(0,)), store=tmp_path / "sub" / "dir")
        assert fanned.executions == 1
        assert len(ResultStore(tmp_path / "sub" / "dir")) == 1


class TestSweepFailureHandling:
    """A failed sub-run must not discard its batch-mates or the drain."""

    def _mixed_grid(self):
        # One good point, one that validates eagerly but fails at run time
        # (the topology builder rejects the unknown keyword).
        return {"topology.params": [{}, {"bogus": 1}]}

    def _bad_digest(self, spec):
        return spec.with_updates({"topology.params": {"bogus": 1}}).spec_hash()

    def test_in_process_failure_persists_completed_jobs(self, tmp_path):
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        with pytest.raises(api.SweepExecutionError) as excinfo:
            sweep(spec, grid=self._mixed_grid(), store=store)
        assert self._bad_digest(spec) in excinfo.value.failures
        assert self._bad_digest(spec) in str(excinfo.value)
        # The good point landed despite the failure: a re-run resumes it.
        resumed = sweep(spec, store=store)
        assert resumed.executions == 0 and resumed.cached_jobs == 1

    def test_pool_failure_keeps_batch_mates(self, tmp_path):
        # Regression: a raised future.result() aborted the drain loop
        # mid-wait, discarding already-completed futures in the same batch.
        spec = strategies_spec(seeds=(0,))
        store = ResultStore(tmp_path)
        with pytest.raises(api.SweepExecutionError) as excinfo:
            sweep(spec, grid=self._mixed_grid(), store=store, workers=2)
        assert list(excinfo.value.failures) == [self._bad_digest(spec)]
        resumed = sweep(spec, store=store)
        assert resumed.executions == 0 and resumed.cached_jobs == 1

    def test_cli_reports_partial_failure_as_exit_1(self, tmp_path, capsys):
        target = tmp_path / "scenario.json"
        target.write_text(strategies_spec(seeds=(0,)).to_json())
        assert main([
            "sweep", str(target), "--set", "topology.params.bogus=1",
        ]) == 1
        err = capsys.readouterr().err
        assert "sweep job(s) failed" in err


class TestSweepCLI:
    def _write_spec(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(strategies_spec(seeds=(0,)).to_json())
        return str(path)

    def test_grid_sweep_twice_second_all_cached(self, tmp_path, capsys):
        target = self._write_spec(tmp_path)
        argv = [
            "sweep", target, "--grid", "evaluation.seeds=0,1",
            "--workers", "2", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 total, 0 cached, 2 executed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 total, 2 cached, 0 executed" in second
        assert "shortest_path" in second

    def test_json_flag_prints_spec_and_grid(self, tmp_path, capsys):
        target = self._write_spec(tmp_path)
        assert main(["sweep", target, "--grid", "traffic.model=bimodal,gravity",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == {"traffic.model": ["bimodal", "gravity"]}
        assert payload["spec"]["name"] == "sweep-fast"

    def test_malformed_grid_flag_is_a_clean_error(self, tmp_path, capsys):
        assert main(["sweep", self._write_spec(tmp_path), "--grid", "nonsense"]) == 2
        assert "--grid expects" in capsys.readouterr().err

    def test_duplicate_grid_axis_rejected(self, tmp_path, capsys):
        assert main([
            "sweep", self._write_spec(tmp_path),
            "--grid", "traffic.length=8", "--grid", "traffic.length=9",
        ]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_empty_pooled_results_render_without_crashing(self):
        # memory_length consuming the whole sequence yields an empty pooled
        # result (NaN mean); the sweep report must render it, not crash.
        from repro.experiments.reporting import format_scenario, format_sweep

        spec = api.ScenarioSpec(
            name="empty-eval",
            traffic={"model": "bimodal", "length": 3, "cycle_length": 3,
                     "num_train": 1, "num_test": 1},
            routing={"strategies": ["shortest_path"]},
        )
        fanned = sweep(spec)
        assert fanned.result.strategies["shortest_path"].count == 0
        assert "nan" in format_sweep(fanned)
        assert "nan" in format_scenario(fanned.result)

    def test_memory_length_counts_match_scale(self, tmp_path):
        # Sanity-check the fast fixture really evaluates something.
        result = api.run(strategies_spec(seeds=(0,)))
        expected = 8 - get_preset("quick").memory_length
        assert result.strategies["shortest_path"].count == expected
