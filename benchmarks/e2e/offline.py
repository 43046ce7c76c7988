"""Offline workloads: one ``api.run()`` of a preset per fresh process.

Each rep is its own interpreter, so no process-level cache carries over
from one rep to the next: a rep pays what ``runner run`` pays.  The child
prints ``ready`` once ``repro`` is imported and the spec resolved (the
set-up time), then times ``api.run()`` itself between two calibrations of
the machine's speed, which scale the rep's times to the reference speed.

Run as a script, this file is the child::

    PYTHONPATH=src python benchmarks/e2e/offline.py fig6 --seed 0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from time import perf_counter

from common import (
    HERE,
    BenchError,
    Child,
    calibrate,
    cpus,
    payload,
    percentile,
    ratios_ok,
    speed_scale,
)
from metrics import SERVICE_METRICS, layer_metrics
from tracer import Tracer, coverage, layer_table

#: ``--smoke`` sizes: less training, and the link flap on an 11-node graph.
SMOKE_UPDATES = {
    "fig6": {"training.overrides.total_timesteps": 64},
    "zoo-large-sparse-linkflap": {"topology.name": "abilene", "traffic.params.density": 0.3},
}

CHILD_TIMEOUT_S = 150.0

#: A run cycles its reps over this many evaluation seeds.  Inputs differ
#: in cost (one ``zoo-large-sparse-linkflap`` seed in four measured a
#: fifth slower than the rest); a mix keeps one input from setting a run's
#: median.
SEEDS_PER_RUN = 4


def evaluation_seeds(seed: int) -> list:
    """The evaluation seeds a run with bench seed ``seed`` cycles over.

    Disjoint for distinct bench seeds; bench seed 0 starts with the
    presets' own seed 0.
    """
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def resolve_spec(scenario: str, seed: int, smoke: bool):
    from repro.api.presets import get_scenario

    updates = {"evaluation.seeds": [seed]}
    if smoke:
        updates.update(SMOKE_UPDATES.get(scenario, {}))
    return get_scenario(scenario).with_updates(updates)


def expected_ratio_count(spec) -> int:
    """Ratios per label: one per post-warm-up step of every test sequence."""
    scale = spec.training.scale()
    traffic = spec.traffic
    num_test = traffic.num_test if traffic.num_test is not None else scale.num_test_sequences
    length = traffic.length if traffic.length is not None else scale.sequence_length
    return num_test * (length - scale.memory_length)


# -- child -----------------------------------------------------------------


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed api.run() of a preset")
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from repro import api

    spec = resolve_spec(args.scenario, args.seed, args.smoke)
    print("ready", flush=True)
    out: dict = {"calibration_s": [calibrate()]}
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            with tracer.span("run") as root:
                result = api.run(spec)
        out["run_s"] = root[4] - root[3]
        out["spans"] = tracer.spans
        out["caches"] = tracer.cache_counters()
    else:
        start = perf_counter()
        result = api.run(spec)
        out["run_s"] = perf_counter() - start
    out["calibration_s"].append(calibrate())
    out["ratios"] = {
        label: [float(r) for r in evaluation.ratios]
        for label, evaluation in {**result.policies, **result.strategies}.items()
    }
    print("result " + json.dumps(out), flush=True)
    return 0


# -- workload --------------------------------------------------------------


def run_rep(scenario: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One child on the first processor; ``api.run()`` is single-threaded."""
    args = [sys.executable, str(HERE / "offline.py"), scenario, "--seed", str(seed)]
    args += ["--trace"] * trace + ["--smoke"] * smoke
    with Child(args, cpu=cpus()[0]) as child:
        ready_at, _ = child.wait_line("ready", CHILD_TIMEOUT_S)
        _, line = child.wait_line("result ", CHILD_TIMEOUT_S)
        code = child.finish(CHILD_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"offline child exited {code}:\n{child.tail()}")
        rep = payload(line, "result ")
        rep["setup_s"] = ready_at - child.started
        rep["wall_s"] = child.ended - child.started
    rep["scale"] = speed_scale(*rep["calibration_s"])
    rep["seed"] = seed
    rep["traced"] = trace
    return rep


def check_rep(rep: dict, reference: dict, expected_count: int) -> list:
    """Problems with one rep's ratios (empty when correct)."""
    problems = []
    for label, ratios in rep["ratios"].items():
        if len(ratios) != expected_count:
            problems.append(f"{label}: {len(ratios)} ratios, expected {expected_count}")
        if not ratios_ok(ratios):
            problems.append(f"{label}: ratio below 1 or not finite")
    if rep["ratios"] != reference:
        problems.append(f"seed {rep['seed']}: ratios differ from the first rep of that seed")
    return problems


def run(scenario: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Warm-up rep, then reps until ``seconds`` pass, cycling over the run's
    evaluation seeds; with ``trace``, each untraced rep is followed by a
    traced rep of the same seed."""
    seeds = evaluation_seeds(seed)
    expected = expected_ratio_count(resolve_spec(scenario, seeds[0], smoke))
    reps, problems = [], []
    if not smoke:
        reps.append(run_rep(scenario, seeds[0], False, smoke))
    measured_from = len(reps)
    start = perf_counter()
    while True:
        measured = reps[measured_from:]
        untraced = [rep for rep in measured if not rep["traced"]]
        traced = [rep for rep in measured if rep["traced"]]
        if untraced and (traced or not trace) and perf_counter() - start >= seconds:
            break
        traced_next = trace and len(traced) < len(untraced)
        k = len(untraced) - traced_next  # a traced rep repeats the untraced rep's seed
        reps.append(run_rep(scenario, seeds[k % len(seeds)], traced_next, smoke))

    references: dict = {}
    failed = 0
    for rep in reps:
        found = check_rep(rep, references.setdefault(rep["seed"], rep["ratios"]), expected)
        failed += bool(found)
        problems += found
    reference = references[seeds[0]]
    all_ratios = [r for ratios in reference.values() for r in ratios]
    count = len(untraced)
    # Wall-clock times as measured; the metrics use them at the reference speed.
    detail = {
        "reps": count,
        "seeds": [rep["seed"] for rep in untraced],
        "run_s": [rep["run_s"] for rep in untraced],
        "setup_s": [rep["setup_s"] for rep in untraced],
        "wall_s": [rep["wall_s"] for rep in untraced],
        "calibration_s": [c for rep in untraced for c in rep["calibration_s"]],
        "ratio_mean": math.fsum(all_ratios) / len(all_ratios),
        "ratio_count": {label: len(r) for label, r in reference.items()},
    }
    run_s = [rep["run_s"] * rep["scale"] for rep in untraced]
    setup_s = [rep["setup_s"] * rep["scale"] for rep in untraced]
    out = {
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "detail": detail,
        "metrics": {
            "setup_s": percentile(setup_s, 50),
            "p50_ms": percentile(run_s, 50) * 1000.0,
            "throughput_per_s": count / math.fsum(setup_s + run_s),
        },
        "samples": dict.fromkeys(("setup_s", "p50_ms", "throughput_per_s"), count),
    }
    if trace:
        out["layers"] = traced_layers(traced, run_s)
    return out


def traced_layers(traced: list, untraced_run_s: list) -> dict:
    """Per-layer metrics averaged over the traced reps, plus the table to print."""
    table: dict = {}
    hits_misses: dict = {}
    for rep in traced:
        for layer, row in layer_table(rep["spans"]).items():
            total = table.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in total:
                total[key] += row[key]
        for kind, (hits, misses) in rep["caches"].items():
            h, m = hits_misses.get(kind, (0, 0))
            hits_misses[kind] = (h + hits, m + misses)
    metrics = layer_metrics(table, len(traced), hits_misses)
    metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    metrics["trace.coverage"] = sum(coverage(rep["spans"]) for rep in traced) / len(traced)
    metrics["trace.overhead"] = (
        percentile([rep["run_s"] * rep["scale"] for rep in traced], 50)
        / percentile(untraced_run_s, 50)
        - 1.0
    )
    return {
        "metrics": metrics,
        "table": {
            layer: {key: value / len(traced) for key, value in row.items()}
            for layer, row in table.items()
        },
        "traced_run_s": [rep["run_s"] for rep in traced],
    }


if __name__ == "__main__":
    sys.exit(child_main())
