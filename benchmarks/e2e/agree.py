"""Do two sets of benchmark runs agree within the benchmark's own bounds?

::

    python3 benchmarks/e2e/agree.py A.jsonl B.jsonl

Each file holds the records ``run.py --json FILE`` appended, typically ten
untraced runs per workload with different ``--seed`` values.  For every
(workload, end-to-end metric) it prints both medians, their relative
difference and each set's spread (interquartile range over median, from
``statistics.quantiles(values, n=4)``), then a verdict:

- ``agree``: the medians differ by no more than the metric's bound;
- ``DIFFER``: they differ by more;
- ``unresolved``: a set's spread is wider than the bound, so the medians
  cannot be compared at that bound (``setup_s`` is exempt: its bound
  covers set-up work moved between commits, not run-to-run spread).

It also checks that ``ratio_mean`` is identical for every (workload, seed)
the two sets share.  Exits 1 unless every pair agrees and every shared
``ratio_mean`` matches.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from metrics import declaration


def load(path: str) -> dict:
    """``workload -> [record, ...]`` for the untraced, full-size runs in ``path``."""
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"] and not record["smoke"]:
                runs[record["workload"]].append(record)
    return runs


def spread(values: list) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(a: dict, b: dict, bounds: dict) -> list:
    """One row per (workload, metric) both sets measured."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric, bound in bounds.items():
            va = [r["metrics"][metric]["value"] for r in a[workload]]
            vb = [r["metrics"][metric]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            diff = (mb - ma) / ma
            if metric != "setup_s" and max(sa, sb) > bound:
                verdict = "unresolved"
            else:
                verdict = "agree" if abs(diff) <= bound else "DIFFER"
            rows.append((workload, metric, len(va), len(vb), ma, mb, diff, sa, sb, bound, verdict))
    return rows


def ratio_mismatches(a: dict, b: dict) -> tuple:
    """``(pairs compared, [(workload, seed, A's ratio_mean, B's), ...])``."""
    compared, out = 0, []
    for workload in sorted(set(a) & set(b)):
        first = {r["seed"]: r["detail"]["ratio_mean"] for r in a[workload]}
        for r in b[workload]:
            if r["seed"] in first:
                compared += 1
                if r["detail"]["ratio_mean"] != first[r["seed"]]:
                    out.append((workload, r["seed"], first[r["seed"]], r["detail"]["ratio_mean"]))
    return compared, out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: agree.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    bounds = {m["name"]: m["bound"] for m in declaration()["end_to_end"]}
    rows = compare(a, b, bounds)
    print(
        f"{'workload':<28}{'metric':<18}{'n':>7}{'median A':>14}{'median B':>14}"
        f"{'B/A-1':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict"
    )
    for workload, metric, na, nb, ma, mb, diff, sa, sb, bound, verdict in rows:
        print(
            f"{workload:<28}{metric:<18}{f'{na}/{nb}':>7}{ma:>14.4f}{mb:>14.4f}"
            f"{diff:>+9.4f}{sa:>10.4f}{sb:>10.4f}{bound:>7.2f}  {verdict}"
        )
    compared, mismatches = ratio_mismatches(a, b)
    for workload, seed, ra, rb in mismatches:
        print(f"ratio_mean differs: {workload} seed {seed}: {ra!r} vs {rb!r}")
    same = compared - len(mismatches)
    print(f"ratio_mean identical for {same} of {compared} shared (workload, seed) pairs")
    ok = rows and all(row[-1] == "agree" for row in rows) and not mismatches
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
