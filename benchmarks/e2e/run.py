"""End-to-end benchmark of the GDDR reproduction.

Runs each workload, checks its outputs, prints every metric by name with
its unit, and ends with one JSON result line::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
        [--trace 0|1] [--json FILE] [--smoke]

With ``--trace 0`` (the default) the result line carries the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` a traced run measures the
per-layer metrics instead.  ``--json FILE`` appends one record per workload
run (all samples, the environment, the layer tables) for ``agree.py``.
Times of work that keeps a processor busy are reported at a reference
speed of the shared host (:func:`common.calibrate`); the record keeps the
wall-clock ones.  The exit code is non-zero when any output is wrong or a
step fails.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import REFERENCE_UNIT_S, BenchError, environment, percentile, require_program
from metrics import ALL, OFFLINE, declaration, units

#: Problems printed per workload (all of them go to --json).
SHOWN_PROBLEMS = 10


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if name in OFFLINE:
        import offline

        return offline.run(name, seed, seconds, trace, smoke)
    import serve

    return serve.run(name.rsplit("-", 1)[1], seed, seconds, trace, smoke)


def print_table(title: str, table: dict, operation_s: float) -> None:
    print(f"  {title}")
    print(f"    {'layer':<26}{'calls/op':>10}{'self s/op':>12}{'total s/op':>12}{'self %':>8}")
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / operation_s if operation_s else 0.0
        print(
            f"    {layer:<26}{row['calls']:>10.1f}{row['self_s']:>12.6f}"
            f"{row['total_s']:>12.6f}{share:>8.1f}"
        )


def report(name: str, out: dict, trace: bool) -> dict:
    """Print the workload's metrics; returns the ones the result line carries."""
    section = "per_layer" if trace else "end_to_end"
    declared = units(section)
    metrics = out["layers"]["metrics"] if trace else out["metrics"]
    if set(metrics) != set(declared):
        raise BenchError(
            f"{name} measured {sorted(set(metrics) ^ set(declared))} "
            f"out of step with BENCHMARK.json's {section}"
        )
    unmeasured = [m for m, value in metrics.items() if value is None or not math.isfinite(value)]
    if unmeasured:
        raise BenchError(f"{name} could not measure {unmeasured}: {out['problems'][:3]}")
    for metric in declared:
        samples = out.get("samples", {}).get(metric) if not trace else None
        note = f"  (n={samples})" if samples is not None else ""
        print(f"  {metric:<32}{metrics[metric]:>16.6f} {declared[metric]}{note}")
    open_loop = out["detail"].get("open_loop_ms")
    if open_loop and not trace:
        print(
            f"  open-loop tail, wall clock, not gated: p90 {open_loop['p90']:.3f} ms, "
            f"p99 {open_loop['p99']:.3f} ms, max {open_loop['max']:.3f} ms (n={open_loop['count']})"
        )
    if not trace:
        unit_s = percentile(out["detail"]["calibration_s"], 50)
        print(
            f"  calibration unit: {unit_s * 1000:.3f} ms (median) here, "
            f"{REFERENCE_UNIT_S * 1000:g} ms at the reference speed (see README.md)"
        )
    if trace:
        table = out["layers"]["table"]
        operation_s = sum(row["self_s"] for row in table.values())
        print_table("per operation (traced)", table, operation_s)
        traced_run_s = out["layers"].get("traced_run_s")
        if traced_run_s:
            print(
                f"  layer self times sum to {operation_s:.6f} s; "
                f"traced api.run() mean {sum(traced_run_s) / len(traced_run_s):.6f} s"
            )
        startup = out["layers"].get("startup_table")
        if startup:
            startup_s = sum(row["self_s"] for row in startup.values())
            print_table("server start-up (traced)", startup, startup_s)
        print(
            f"  untraced p50 {out['metrics']['p50_ms']:.3f} ms, "
            f"trace.overhead {metrics['trace.overhead']:+.4f}"
        )
    for problem in out["problems"][:SHOWN_PROBLEMS]:
        print(f"  FAILED {problem}")
    return {metric: {"value": metrics[metric], "unit": declared[metric]} for metric in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=ALL, dest="workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", dest="json_path", default=None, metavar="FILE")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)
    try:
        require_program()
        seconds = args.seconds if args.seconds is not None else declaration()["run_seconds"]
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment()
    code = 0
    for name in args.workloads or ALL:
        print(
            f"== {name}  seed {args.seed}  {seconds:g} s  trace {args.trace}  "
            f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
            f"scipy {env['scipy']}",
            flush=True,
        )
        try:
            out = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
            metrics = report(name, out, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            code = 1
            continue
        result = {
            "correct": not out["failed"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics,
        }
        if args.json_path:
            record = {
                "workload": name,
                "seed": args.seed,
                "seconds": seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "environment": env,
                **result,
                "detail": out["detail"],
                "layers": out.get("layers", {}).get("table"),
                "problems": out["problems"],
            }
            with open(args.json_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        print(json.dumps(result), flush=True)
        code = code or (1 if out["failed"] else 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
