"""Plain-text rendering of experiment results.

The CLI runner prints every scenario and sweep through these helpers, so
the rows/series the paper's figures report are formatted in one place.
"""

from __future__ import annotations

import math


def _bar(value: float, scale: float = 20.0, maximum: float = 2.5) -> str:
    if not math.isfinite(value):  # empty results pool to a NaN mean
        return ""
    filled = int(round(min(value, maximum) / maximum * scale))
    return "#" * filled


def format_scenario(result) -> str:
    """A :class:`repro.api.ScenarioResult` as the generic text report.

    Covers every metric the scenario API collects: pooled utilisation
    ratios (policies and strategies interleaved in spec order), per-seed
    learning-curve summaries, and training throughput.
    """
    spec = result.spec
    header = f"Scenario {spec.name!r}"
    if spec.description:
        header += f" — {spec.description}"
    lines = [header]
    seeds = tuple(spec.evaluation.seeds)

    rows = result.rows()
    if rows:
        pooled = f" (pooled over seeds {list(seeds)})" if len(seeds) > 1 else ""
        lines += [
            "",
            f"mean max-utilisation ratio vs LP optimum (lower is better, 1.0 = optimal){pooled}",
        ]
        for label, mean in rows:
            lines.append(f"  {label:<24} {mean:6.3f}  {_bar(mean)}")

    if result.curves:
        lines += ["", "learning curves (final mean episode reward per seed; higher is better)"]
        for label, curves in result.curves.items():
            finals = ", ".join(
                f"seed {seed}: {curve.final_reward:9.2f}"
                if curve.mean_episode_rewards and math.isfinite(curve.final_reward)
                else f"seed {seed}: n/a (no completed episode)"
                for seed, curve in zip(seeds, curves)
            )
            lines.append(f"  {label:<24} {finals}")

    if result.throughput:
        lines += ["", "training throughput (environment steps per second)"]
        for label, fps in result.throughput.items():
            lines.append(f"  {label:<24} {fps:8.1f} fps")

    return "\n".join(lines)


def format_sweep(result, store_dir=None) -> str:
    """A :class:`repro.api.SweepResult` as the sweep summary table.

    One block per grid point — its override assignment, cache/execute
    status, and pooled metric rows — then a sub-run totals footer (the CI
    smoke job greps the footer for ``0 executed`` to assert a warm store).
    """
    spec = result.spec
    lines = [f"Sweep {spec.name!r} — {len(result.points)} point(s)"]
    if result.grid:
        lines.append(
            "  grid: "
            + "; ".join(f"{path}={', '.join(map(str, vs))}" for path, vs in result.grid.items())
        )
    for point in result.points:
        assignment = ", ".join(f"{k}={v}" for k, v in point.overrides.items()) or "(base spec)"
        status = f"{len(point.cached_seeds)} cached, {len(point.executed_seeds)} executed"
        lines += ["", f"  {assignment}  [{status}]"]
        rows = point.result.rows()
        for label, mean in rows:
            lines.append(f"    {label:<24} {mean:6.3f}  {_bar(mean)}")
        if not rows and point.result.curves:
            for label, curves in point.result.curves.items():
                finals = ", ".join(
                    f"seed {seed}: {curve.final_reward:9.2f}"
                    if curve.mean_episode_rewards and math.isfinite(curve.final_reward)
                    else f"seed {seed}: n/a"
                    for seed, curve in zip(point.spec.evaluation.seeds, curves)
                )
                lines.append(f"    {label:<24} {finals}")
        for label, fps in point.result.throughput.items():
            lines.append(f"    {label:<24} {fps:8.1f} fps")
    footer = (
        f"  sub-runs: {result.total_jobs} total, {result.cached_jobs} cached, "
        f"{result.executions} executed"
    )
    if store_dir:
        footer += f" (store: {store_dir})"
    lines += ["", footer]
    return "\n".join(lines)
