"""Shared benchmark configuration.

Every figure benchmark runs its experiment once (training runs are not
micro-benchmarks) and prints the same rows/series the paper's figure
reports; run with ``pytest benchmarks/ --benchmark-only -s`` to see them.

The ``bench`` scale below is the quick preset: it exercises every code
path end-to-end in seconds.  To regenerate a figure at meaningful
training scale, run its scenario through the experiment runner::

    python -m repro.experiments.runner run fig6 --preset standard
    python -m repro.experiments.runner run fig8-different --preset standard
"""

import pytest

from repro.experiments.config import get_preset


@pytest.fixture(scope="session")
def bench_scale():
    """The experiment scale used by the figure benchmarks."""
    return get_preset("quick")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
