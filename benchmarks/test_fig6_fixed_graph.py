"""Benchmark regenerating Figure 6: learning to route on a fixed graph.

Paper series (Abilene, 500k steps): bar heights are the mean ratio between
achieved max-link-utilisation and the optimum; MLP ≈ 1.18, GNN ≈ 1.11,
GNN-Iterative ≈ 1.14, shortest-path dotted line ≈ 1.30 (read off Fig. 6).
Expected shape at any scale: every learned policy ≤ shortest path; GNN
policies ≤ MLP (approximately).
"""

import pytest

from benchmarks.conftest import run_once
from repro import api
from repro.api.presets import fig6_spec
from repro.experiments.reporting import format_scenario

# Full experiment runs: excluded from tier-1 (see pyproject addopts);
# run with `pytest benchmarks -m ''` or the nightly benchmark workflow.
pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="fig6")
def test_fig6_fixed_graph(benchmark, bench_scale):
    result = run_once(benchmark, api.run, fig6_spec(scale=bench_scale, seed=0))
    print()
    print(format_scenario(result))

    rows = dict(result.rows())
    sp = rows["shortest_path"]

    # All ratios are valid (>= 1 up to LP tolerance).
    for label, mean in rows.items():
        assert mean >= 1.0 - 1e-6, label

    # Paper shape: learned policies beat classical shortest path.  The quick
    # preset trains for seconds, so allow a small tolerance above the line.
    for label in ("mlp", "gnn", "gnn_iterative"):
        assert rows[label] <= sp * 1.15, (label, rows[label], sp)
