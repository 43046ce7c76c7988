#!/usr/bin/env python
"""Digest every registered scenario's quick sweep store, for bit-identity checks.

Sweeps each registered scenario except ``throughput`` (its results record
wall-clock training speed, which never repeats) through the CLI with
``--preset quick --set training.total_timesteps=128 --store DIR/<scenario>``
and prints one ``scenario sha256`` line per store file.  Run it on two
checkouts and diff the output: identical lines mean every stored result is
byte-identical::

    python benchmarks/store_digest.py /tmp/digest-a > a.txt
    python benchmarks/store_digest.py /tmp/digest-b > b.txt   # other checkout
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import scenario_names  # noqa: E402

SKIPPED = ("throughput",)
SWEEP_ARGS = ("--preset", "quick", "--set", "training.total_timesteps=128")


def sweep(scenario: str, store: Path) -> None:
    """One quick sweep of ``scenario`` into ``store`` via the CLI."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro.experiments.runner", "sweep", scenario]
    subprocess.run(
        [*command, *SWEEP_ARGS, "--store", str(store)],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        stdout=subprocess.DEVNULL,
    )


def digests(store: Path) -> list[str]:
    """sha256 of every file under ``store``, in path order."""
    return [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="empty directory the stores are written to")
    args = parser.parse_args(argv)
    for scenario in scenario_names():
        if scenario in SKIPPED:
            continue
        store = args.dir / scenario
        sweep(scenario, store)
        for digest in digests(store):
            print(f"{scenario} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
