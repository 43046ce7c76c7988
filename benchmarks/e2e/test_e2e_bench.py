"""Self-tests of the end-to-end benchmark: statistics, tracer, schema, smoke.

The smoke test runs all four workloads at tiny sizes, as separate
``run.py`` processes in parallel, and checks their result lines and
``--json`` records against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import common
import metrics
import tracer
from common import ROOT, percentile, summary, tail_percentile

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def span(sid, parent, name, start, end, rid=None):
    return [sid, parent, name, float(start), float(end), rid]


# -- statistics -------------------------------------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 100, 1001):
        values = list(rng.exponential(size=size))
        for q in (0, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_summary_states_count_and_tail():
    out = summary(range(1, 201))
    assert out["count"] == 200
    assert out["p50"] == pytest.approx(100.5)
    assert out["max"] == 200
    assert out["tail"] == 90.0


def test_speed_scale_maps_measured_seconds_to_the_reference_speed():
    unit = common.REFERENCE_UNIT_S
    # A machine taking twice the reference time per unit runs at half speed.
    assert common.speed_scale(2.0 * unit) == pytest.approx(0.5)
    # Before and after an operation count equally.
    assert common.speed_scale(0.5 * unit, 1.5 * unit) == pytest.approx(1.0)
    assert common.calibrate(units=1) > 0.0


# -- span arithmetic --------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, None, "run", 0, 10),
        span(1, 0, "a", 1, 4),
        span(2, 0, "b", 3, 6),  # overlaps a: the union is [1, 6]
        span(3, 1, "c", 2, 3),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    assert tracer.coverage(spans) == pytest.approx(0.5)


def test_layer_self_times_sum_to_the_root_and_nested_calls_count_once():
    spans = [
        span(0, None, "run", 0, 10),
        span(1, 0, "policies.forward", 1, 4),
        span(2, 1, "policies.forward", 2, 3),  # act_batch falling back to act
        span(3, 0, "envs.step", 5, 9),
        span(4, 3, "flows.simulate", 6, 8),
    ]
    table = tracer.layer_table(spans)
    assert table["policies.forward"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert table["envs.step"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)
    assert tracer.coverage(spans) == pytest.approx(0.7)


def test_layer_metrics_are_per_operation_and_ratios_are_of_lookups():
    table = {
        "policies.forward": {"calls": 10, "self_s": 2.0, "total_s": 2.0},
        "envs.step": {"calls": 40, "self_s": 1.0, "total_s": 3.0},
        "rl.learn": {"calls": 2, "self_s": 0.1, "total_s": 4.0},
    }
    out = metrics.layer_metrics(table, 2, {"optimum": (3, 1)})
    assert out["policies.forward_s"] == 1.0
    assert out["policies.forward_calls"] == 5.0
    assert out["rl.env_steps_per_s"] == 10.0
    assert out["flows.optimum_hit_ratio"] == 0.75
    assert out["flows.structure_hit_ratio"] == 0.0
    assert out["graphs.variant_s"] == 0.0


# -- wrappers -----------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.core`` defines the targets; ``fakepkg.user`` imports them by name."""
    package = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def solve(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    class Base:
        def step(self):
            return "base"

    class Own(Base):
        def step(self):
            return "own"

    class Inherits(Base):
        pass

    core.solve, core.helper, core.Base, core.Own, core.Inherits = solve, helper, Base, Own, Inherits
    user.solve = solve
    package.core, package.user = core, user
    for name, module in (("fakepkg", package), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_wrappers_rebind_module_globals_imported_by_name(fake_package):
    core, user = fake_package
    original = core.solve
    trace = tracer.Tracer(package="fakepkg")
    assert trace.wrap_function("layer.solve", original) == 2
    assert core.solve is user.solve is not original
    assert core.solve.__wrapped__ is original
    assert user.solve(3) == 7
    assert [s[2] for s in trace.spans] == ["layer.solve"]
    trace.uninstall()
    assert core.solve is original and user.solve is original


def test_method_wrappers_cover_each_class_defining_its_own(fake_package):
    core, _ = fake_package
    originals = (core.Base.__dict__["step"], core.Own.__dict__["step"])
    trace = tracer.Tracer(package="fakepkg")
    assert trace.wrap_method("layer.step", core.Base, "step") == 2
    assert "step" not in core.Inherits.__dict__
    assert [core.Base().step(), core.Own().step(), core.Inherits().step()] == [
        "base", "own", "base",
    ]
    assert [s[2] for s in trace.spans] == ["layer.step"] * 3
    trace.uninstall()
    assert (core.Base.__dict__["step"], core.Own.__dict__["step"]) == originals


def test_request_ids_reach_children_and_the_root_that_parsed_them():
    trace = tracer.Tracer()
    first = types.SimpleNamespace(request_id="o1")

    def evaluate(server, request):
        with trace.span("inner"):
            pass

    traced = trace.wrap("service.evaluate", evaluate, tracer._request_id_of_request)
    with trace.span("service.request"):
        traced(None, first)
    by_name = {s[2]: s for s in trace.spans}
    assert by_name["inner"][5] == "o1"
    assert by_name["service.request"][5] == "o1"
    assert by_name["inner"][1] == by_name["service.evaluate"][0]


def test_installing_on_the_program_wraps_every_binding_and_restores_them():
    common.require_program()
    import repro.api.runner as runner
    import repro.engine as engine
    from repro.engine import evaluate
    from repro.policies.gnn import GNNPolicy

    original = evaluate.batch_evaluate
    act_batch = GNNPolicy.__dict__["act_batch"]
    trace = tracer.Tracer()
    with trace.installed():
        assert runner.batch_evaluate is engine.batch_evaluate is evaluate.batch_evaluate
        assert evaluate.batch_evaluate.__wrapped__ is original
        assert GNNPolicy.__dict__["act_batch"].__wrapped__ is act_batch
    assert runner.batch_evaluate is original and evaluate.batch_evaluate is original
    assert GNNPolicy.__dict__["act_batch"] is act_batch


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_follows_the_schema():
    spec = metrics.declaration()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"] and all(PATH.match(p) for p in spec["paths"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(metrics.ALL)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in end_to_end)
    assert all(set(m) == {"name", "unit", "better"} for m in per_layer)
    every = names + [m["name"] for m in end_to_end + per_layer]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in end_to_end + per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    assert len(json.dumps(spec)) <= 64 * 1024


def test_every_layer_metric_is_computed_and_names_what_it_should_move():
    declared = {m["name"] for m in metrics.declaration()["per_layer"]}
    computed = set(metrics.layer_metrics({}, 1, {})) | set(metrics.SERVICE_METRICS)
    assert computed | {"trace.coverage", "trace.overhead"} == declared
    end_to_end = {m["name"] for m in metrics.declaration()["end_to_end"]}
    predicted = [name for names, *_ in metrics.PREDICTIONS for name in names]
    assert sorted(predicted) == sorted(declared)
    for _, moves, on, unchanged in metrics.PREDICTIONS:
        assert moves and set(moves) <= end_to_end
        assert on and set(on + unchanged) <= set(metrics.ALL)
        assert not set(on) & set(unchanged)


# -- smoke --------------------------------------------------------------------


def test_smoke_runs_every_workload_and_prints_only_declared_metrics(tmp_path):
    # Both trace modes for both kinds of workload, four processes at once.
    plan = {
        "fig6": 0,
        "zoo-large-sparse-linkflap": 1,
        "serve-fig6-replay": 0,
        "serve-fig6-fresh": 1,
    }
    children = {}
    for workload, trace in plan.items():
        args = [
            sys.executable, str(common.HERE / "run.py"), "--smoke", "--seconds", "0.2",
            "--workload", workload, "--trace", str(trace), "--seed", "1",
            "--json", str(tmp_path / f"{workload}.jsonl"),
        ]
        children[workload] = subprocess.Popen(
            args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
    outputs = {}
    try:
        for workload, child in children.items():
            outputs[workload] = child.communicate(timeout=120)[0]
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    declared = {
        section: {m["name"]: m["unit"] for m in metrics.declaration()[section]}
        for section in ("end_to_end", "per_layer")
    }
    for workload, trace in plan.items():
        child, output = children[workload], outputs[workload]
        assert child.returncode == 0, output[-3000:]
        result = json.loads(output.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        units = declared["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        record = json.loads((tmp_path / f"{workload}.jsonl").read_text())
        assert record["environment"]["nproc"] >= 1
        assert set(record["environment"]["blas_env"]) == set(common.BLAS_ENV)
    traced_offline = json.loads(outputs["zoo-large-sparse-linkflap"].splitlines()[-1])["metrics"]
    assert traced_offline["trace.coverage"]["value"] > 0.9
    assert traced_offline["routing.strategy_builds"]["value"] > 0
    assert traced_offline["policies.forward_calls"]["value"] == 0
    traced_serve = json.loads(outputs["serve-fig6-fresh"].strip().splitlines()[-1])["metrics"]
    assert traced_serve["flows.lp_solves"]["value"] == 1.0
    assert traced_serve["policies.forward_calls"]["value"] == 2.0
