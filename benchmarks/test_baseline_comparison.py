"""Benchmark: the full baseline ladder on one Abilene workload.

Contextualises the learned policies by measuring every non-learned
strategy in the repository on identical held-out demand: single-path
shortest path, ECMP, capacity-proportional, LP-oblivious, and the
predict-then-optimise pipeline with three predictors (§II's strawman):
forecast the next DM from the observed window, then route it by the LP
optimum for the forecast (:func:`repro.routing.lp_derived_routing`).
The cyclic predictor with a window covering the period is a *perfect*
forecast on cyclical workloads and must sit at ratio ≈ 1.0 — the
upper bound any learned policy is chasing.
"""

import numpy as np
import pytest

from repro.envs.reward import RewardComputer
from repro.graphs import abilene
from repro.routing import (
    capacity_proportional_routing,
    ecmp_routing,
    lp_derived_routing,
    oblivious_routing,
    shortest_path_routing,
)
from repro.traffic import cyclical_sequence

CYCLE = 5
MEMORY = 5  # window covers exactly one period -> cyclic predictor is exact


@pytest.mark.benchmark(group="baseline-ladder")
def test_baseline_ladder(benchmark):
    net = abilene()
    seq = cyclical_sequence(net.num_nodes, 25, CYCLE, seed=3)
    rewarder = RewardComputer()

    static = {
        "shortest path": shortest_path_routing(net),
        "ECMP": ecmp_routing(net),
        "capacity proportional": capacity_proportional_routing(net),
        "oblivious (uniform LP)": oblivious_routing(net),
    }
    # Forecasts of the next DM from the observed window (MEMORY, n, n).
    predictors = {
        "predict: last value": lambda history: history[-1],
        "predict: history mean": lambda history: history.mean(axis=0),
        "predict: cyclic (perfect)": lambda history: history[-CYCLE],
    }

    def run_ladder():
        results: dict[str, list[float]] = {name: [] for name in (*static, *predictors)}
        for step in range(MEMORY, len(seq)):
            dm = seq.matrix(step)
            for name, routing in static.items():
                results[name].append(rewarder.utilisation_ratio(net, routing, dm))
            history = seq.history(step - 1, MEMORY)
            for name, predictor in predictors.items():
                routing = lp_derived_routing(net, predictor(history))
                results[name].append(rewarder.utilisation_ratio(net, routing, dm))
        return {name: float(np.mean(r)) for name, r in results.items()}

    means = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    print("\n  Baseline ladder (mean max-utilisation ratio, lower is better):")
    for name, mean in sorted(means.items(), key=lambda kv: kv[1]):
        print(f"    {name:<28} {mean:.3f}")

    assert means["predict: cyclic (perfect)"] == pytest.approx(1.0, abs=1e-4)
    assert means["ECMP"] <= means["shortest path"] + 1e-9
    for mean in means.values():
        assert mean >= 1.0 - 1e-6
