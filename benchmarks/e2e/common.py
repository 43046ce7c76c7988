"""Shared pieces of the end-to-end benchmark: paths, subprocesses, statistics."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Thread-count variables of the BLAS builds numpy/scipy may load; recorded,
#: never set, because the benchmark measures the environment it is given.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Ratios are U_routing / U_optimal, so >= 1 up to LP tolerance.
RATIO_FLOOR = 1.0 - 1e-9


class BenchError(RuntimeError):
    """A benchmark step could not complete (child died, timed out, bad output)."""


def require_program() -> None:
    """Make ``src/`` importable, or stop: the benchmark measures this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cpus() -> list:
    """The processors this thread may run on, lowest first."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count()))


def nproc() -> int:
    return len(cpus())


@contextmanager
def on_cpu(cpu: int):
    """Run the calling thread, and the threads and processes it starts, on ``cpu``.

    Each measured process gets a processor of its own: the scheduler then
    cannot move it mid-operation, and the calibration taken on that
    processor describes the processor the work ran on.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    supported = [q for q in (90.0, 99.0, 99.9) if count * (1.0 - q / 100.0) >= 10.0 - 1e-9]
    return supported[-1] if supported else None


def summary(values) -> dict:
    """Median, p90, p99 and max with the sample count and the supported tail."""
    values = list(values)
    return {
        "count": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values),
        "tail": tail_percentile(len(values)),
    }


def ratios_ok(ratios) -> bool:
    return all(math.isfinite(r) and r >= RATIO_FLOOR for r in ratios)


# -- machine speed ---------------------------------------------------------

#: Seconds one calibration unit takes at the reference speed, about what
#: it takes on an unloaded 2-vCPU VM at 2.0 GHz.  Times of work that keeps
#: a processor busy are reported at this speed (see :func:`speed_scale`).
REFERENCE_UNIT_S = 0.010
CALIBRATION_UNITS = 6


def _calibration_unit(weights, x) -> None:
    """Fixed work in the program's mix: interpreter-bound dict traffic, as in
    route building, and many small numpy calls, as in the autograd core."""
    import numpy as np

    table: dict = {}
    for i in range(60_000):
        key = i % 101
        table[key] = table.get(key, 0) + i * 7 % 11
    for _ in range(750):
        x = np.tanh(x @ weights + 0.1)


def calibrate(cpu: int | None = None, units: int = CALIBRATION_UNITS) -> float:
    """Median seconds per calibration unit now, on ``cpu`` (default: where
    the calling thread runs): that processor's current speed.

    The host this runs on is shared.  Each processor's speed flips between
    about 1x and 1.7x of its best, over seconds to minutes, as other
    tenants' work comes and goes.  Timing this fixed unit right before and
    after each measured operation lets the benchmark report times at one
    reference speed, so the drift cancels between runs and commits.
    """
    import numpy as np

    rng = np.random.default_rng(7)
    weights = rng.standard_normal((16, 16)) / 4.0
    x = rng.standard_normal((8, 16))
    times = []
    with nullcontext() if cpu is None else on_cpu(cpu):
        for _ in range(units):
            start = perf_counter()
            _calibration_unit(weights, x)
            times.append(perf_counter() - start)
    return percentile(times, 50)


def speed_scale(*calibrations: float) -> float:
    """Factor turning seconds measured between ``calibrations`` (results of
    :func:`calibrate`) into seconds at the reference speed."""
    return REFERENCE_UNIT_S * len(calibrations) / math.fsum(calibrations)


# -- subprocesses ----------------------------------------------------------


def child_env() -> dict:
    """The caller's environment minus ``REPRO_*`` settings (an LP store or a
    fault plan would change what is measured), importing from ``src/``."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A subprocess whose merged stdout/stderr a reader thread collects.

    Each line is stamped with the time it arrived, so a readiness line
    gives the set-up time without polling.  With ``cpu`` the process runs
    on that processor only.  Leaving the ``with`` block closes it
    (:meth:`close`).
    """

    def __init__(self, args: list, cpu: int | None = None):
        self.started = perf_counter()
        with nullcontext() if cpu is None else on_cpu(cpu):
            self.proc = subprocess.Popen(
                args,
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        self.lines: list = []
        self.ended = None
        self._eof = False
        self._cv = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            stamp = perf_counter()
            with self._cv:
                self.lines.append((stamp, line.rstrip("\n")))
                self._cv.notify_all()
        with self._cv:
            self._eof = True
            self._cv.notify_all()

    def tail(self, count: int = 15) -> str:
        with self._cv:
            return "\n".join(line[:300] for _, line in self.lines[-count:])

    def wait_line(self, prefix: str, timeout: float) -> tuple:
        """``(arrival time, line)`` of the first line starting with ``prefix``."""
        deadline = perf_counter() + timeout
        seen = 0
        with self._cv:
            while True:
                for stamp, line in self.lines[seen:]:
                    if line.startswith(prefix):
                        return stamp, line
                seen = len(self.lines)
                if self._eof:
                    raise BenchError(
                        f"child exited before printing {prefix!r}:\n{self.tail()}"
                    )
                remaining = deadline - perf_counter()
                if remaining <= 0.0:
                    raise BenchError(f"child printed no {prefix!r} within {timeout:g}s")
                self._cv.wait(remaining)

    def finish(self, timeout: float) -> int:
        """Wait for exit and for the reader to drain; returns the exit code."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"child did not exit within {timeout:g}s:\n{self.tail()}") from None
        self.ended = perf_counter()
        self._reader.join(timeout)
        return code

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(5.0)

    def close(self) -> None:
        """Kill the process if it still runs, wait for it and close its pipe."""
        self.kill()
        self.proc.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def payload(line: str, prefix: str):
    """The JSON document after ``prefix`` on a child's output line."""
    return json.loads(line[len(prefix):])
