"""Tests for result formatting, the CLI runner and the engine report script."""

import pytest

from benchmarks import engine_report
from repro.api.presets import (
    fig6_spec,
    fig7_spec,
    fig8_different_spec,
    fig8_modifications_spec,
    throughput_spec,
)
from repro.api.results import LearningCurve, ScenarioResult
from repro.engine.evaluate import EvaluationResult
from repro.experiments.reporting import _bar, format_scenario
from repro.experiments.runner import build_parser, main


def eval_result(mean):
    return EvaluationResult((mean,))


class TestFormatting:
    def test_bar_scales_and_clamps(self):
        assert len(_bar(0.0)) == 0
        assert len(_bar(2.5)) == 20
        assert len(_bar(99.0)) == 20  # clamped at maximum
        assert 0 < len(_bar(1.2)) < 20

    def test_bar_handles_non_finite_means(self):
        # An empty EvaluationResult pools to a NaN mean; the formatters
        # must render it, not crash converting NaN to a bar width.
        assert _bar(float("nan")) == ""
        assert _bar(float("inf")) == ""

    def test_format_fig6_contains_all_rows(self):
        result = ScenarioResult(
            spec=fig6_spec(),
            policies={
                "mlp": eval_result(1.18),
                "gnn": eval_result(1.11),
                "gnn_iterative": eval_result(1.14),
            },
            strategies={"shortest_path": eval_result(1.30)},
        )
        text = format_scenario(result)
        for token in ("Fig. 6", "mlp", "gnn_iterative", "shortest_path", "1.180", "1.300"):
            assert token in text

    def test_format_fig7_empty_curve(self):
        empty = LearningCurve("gnn", (), ())
        result = ScenarioResult(
            spec=fig7_spec(),
            curves={"mlp": (LearningCurve("mlp", (1,), (-5.0,)),), "gnn": (empty,)},
        )
        text = format_scenario(result)
        assert "seed 0:     -5.00" in text
        assert "n/a (no completed episode)" in text

    def test_format_fig8(self):
        def setting(spec, gnn, iterative, sp):
            return ScenarioResult(
                spec=spec,
                policies={"gnn": eval_result(gnn), "gnn_iterative": eval_result(iterative)},
                strategies={"shortest_path": eval_result(sp)},
            )

        modifications = format_scenario(setting(fig8_modifications_spec(), 1.2, 1.15, 1.5))
        different = format_scenario(setting(fig8_different_spec(), 2.0, 1.8, 1.6))
        assert "modified Abilene" in modifications and "1.150" in modifications
        assert "different random graphs" in different and "1.800" in different

    def test_format_throughput(self):
        result = ScenarioResult(spec=throughput_spec(), throughput={"mlp": 70.0, "gnn": 70.0})
        assert "70.0 fps" in format_scenario(result)

    def test_learning_curve_final_reward(self):
        curve = LearningCurve("GNN", (1, 2), (-9.0, -5.0))
        assert curve.final_reward == -5.0


class TestRunnerCLI:
    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.command == "run"
        assert args.scenario == "fig6"
        assert args.preset is None and args.seed is None
        assert args.overrides == []

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_parser_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--preset", "huge"])

    def test_main_runs_throughput_quick(self, capsys):
        code = main(["run", "throughput", "--preset", "quick", "--timesteps", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fps" in out

    def test_main_list_scenarios(self, capsys):
        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "link-failure-sweep" in out

    def test_main_list_all_axes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("topologies", "traffic", "strategies", "policies", "scenarios"):
            assert token in out

    def test_main_run_json_resolves_spec_without_running(self, capsys):
        code = main(["run", "fig6", "--json", "--set", "traffic.model=gravity"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"model": "gravity"' in out

    def test_main_run_unknown_scenario_errors(self, capsys):
        code = main(["run", "not-a-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_main_run_bad_set_errors(self, capsys):
        code = main(["run", "fig6", "--set", "nonsense"])
        assert code == 2
        assert "--set expects" in capsys.readouterr().err

    def test_registered_scenario_wins_over_same_named_file(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "fig6").write_text("not json at all")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig6", "--json"]) == 0  # registry, not the file
        assert '"name": "fig6"' in capsys.readouterr().out

    def test_json_suffix_always_reads_the_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_directory_target_is_a_clean_error(self, tmp_path, capsys):
        target = tmp_path / "somedir.json"
        target.mkdir()
        assert main(["run", str(target)]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestBenchPresets:
    def test_bench_parser_accepts_preset(self):
        args = engine_report.build_parser().parse_args(["--preset", "standard"])
        assert args.preset == "standard"
        assert engine_report.build_parser().parse_args([]).preset == "quick"

    def test_bench_workload_scales_with_preset(self):
        assert set(engine_report.BENCH_WORKLOADS) == {"quick", "standard", "paper"}
        quick, standard, paper = (
            engine_report.bench_workload(p) for p in ("quick", "standard", "paper")
        )
        assert quick["num_nodes"] < standard["num_nodes"] < paper["num_nodes"]
        assert quick["num_matrices"] < standard["num_matrices"] < paper["num_matrices"]

    def test_bench_workload_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown bench preset"):
            engine_report.bench_workload("galactic")

    def test_bench_parser_accepts_sparse_nodes(self):
        args = engine_report.build_parser().parse_args(["--sparse-nodes", "320"])
        assert args.sparse_nodes == 320
        assert engine_report.build_parser().parse_args([]).sparse_nodes is None

    def test_bench_rejects_tiny_sparse_nodes(self, capsys):
        assert engine_report.main(["--sparse-nodes", "4"]) == 2
        assert "--sparse-nodes" in capsys.readouterr().err

    def test_sparse_bench_nodes_scales_with_preset(self):
        nodes = engine_report.SPARSE_BENCH_NODES
        assert set(nodes) == {"quick", "standard", "paper"}
        for preset, sizes in nodes.items():
            assert engine_report.sparse_bench_nodes(preset) == sizes
            assert sizes == tuple(sorted(sizes))
        with pytest.raises(ValueError, match="unknown bench preset"):
            engine_report.sparse_bench_nodes("galactic")

    def test_format_backend_bench_rows(self):
        rows = [
            engine_report.BackendBenchmark(
                num_nodes=96, num_edges=254, num_matrices=4,
                dense_seconds=0.009, sparse_seconds=0.035, auto_backend="dense",
            ),
            engine_report.BackendBenchmark(
                num_nodes=256, num_edges=680, num_matrices=4,
                dense_seconds=0.27, sparse_seconds=0.15, auto_backend="sparse",
            ),
        ]
        text = engine_report.format_backend_bench(rows)
        assert "dense stacked LAPACK" in text
        assert "96" in text and "256" in text
        assert "0.26x" in text  # dense wins at the small size
        assert "1.80x" in text  # sparse wins at the large size
        lines = text.splitlines()
        assert lines[-2].rstrip().endswith("dense")
        assert lines[-1].rstrip().endswith("sparse")
