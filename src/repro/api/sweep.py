"""Parallel sweep execution: fan a scenario out across worker processes.

A sweep is the product of two decompositions:

* a **grid** of ``--set``-style dotted-path overrides (``{"traffic.model":
  ["bimodal", "gravity"]}``) expands into one *point spec* per
  combination, in insertion order;
* each point spec splits into one **sub-spec per evaluation seed**
  (:func:`decompose`), because :func:`repro.api.run` treats seeds as
  independent repetitions — a ``_SeedRun`` shares no state across seeds.

Every sub-spec is a complete, self-contained single-seed scenario, so
sub-runs execute anywhere (in-process, ``ProcessPoolExecutor`` workers) and
in any order; :func:`repro.api.results.merge_results` then pools the
partial results with exactly ``run()``'s semantics, making
``sweep(spec, workers=k)`` bit-identical to ``run(spec)`` for every ``k``.

With a :class:`~repro.api.store.ResultStore`, finished sub-runs persist
under their spec hash as soon as they complete: repeated points are
fetched instead of re-executed, identical sub-specs within one sweep run
once, and an interrupted sweep resumes from whatever already landed.

With ``workers == 1`` the deduplicated job list runs in-process; with
``workers > 1`` it drains through a ``ProcessPoolExecutor``.  Both paths
share job enumeration, dedup, incremental ``_record`` and
``merge_results``, so the bit-identity invariant holds per construction.
Per-job failures never abort a drain mid-flight: everything that landed
is recorded (and persisted, given a store), then one
:class:`SweepExecutionError` names the failing spec hashes.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.api.results import ScenarioResult, merge_results
from repro.api.runner import run
from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.api.store import ResultStore


class SweepExecutionError(RuntimeError):
    """One or more sweep sub-runs failed terminally.

    Raised *after* the drain finishes, so every sub-run that did succeed
    has been recorded (and persisted, given a store) — re-running the same
    sweep resumes from those and retries only the failures.  ``failures``
    maps each failing sub-spec hash to its error description.
    """

    def __init__(self, failures: Mapping):
        self.failures = dict(failures)
        listing = "; ".join(
            f"{digest}: {error.splitlines()[0] if error else error}"
            for digest, error in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} sweep job(s) failed "
            f"(completed sub-runs were recorded; re-run to resume): {listing}"
        )


def expand_grid(grid: Optional[Mapping]) -> list[dict]:
    """Cross-product a ``{dotted.path: [values]}`` grid into override dicts.

    Axes expand in insertion order with the last axis varying fastest
    (like nested loops); an empty/absent grid yields the single empty
    assignment, so a grid-less sweep is just the base spec.
    """
    if not grid:
        return [{}]
    paths = list(grid)
    value_lists = []
    for path, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise SpecValidationError(
                f"grid axis {path!r} must be a list of values, got {values!r}"
            )
        values = list(values)
        if not values:
            raise SpecValidationError(f"grid axis {path!r} must not be empty")
        value_lists.append(values)
    return [dict(zip(paths, combo)) for combo in itertools.product(*value_lists)]


def decompose(spec: ScenarioSpec) -> list[tuple[int, ScenarioSpec]]:
    """Split a spec into one single-seed sub-spec per evaluation seed.

    Seeds are unique by spec validation, so each ``(seed, sub_spec)`` pair
    is an independent unit of work whose result keys back into the parent
    unambiguously.
    """
    return [
        (seed, spec.with_updates({"evaluation.seeds": [seed]}))
        for seed in spec.evaluation.seeds
    ]


def _execute(spec_dict: dict, echo: bool = False) -> dict:
    """Worker entry point: run one serialised sub-spec, return a result dict.

    Takes and returns plain dicts so the pool only ever pickles JSON-ready
    data; importing this module inside a spawned worker populates the
    component registries via the ``repro.api`` package import.
    """
    return run(ScenarioSpec.from_dict(spec_dict), echo=echo).to_dict()


@dataclass(frozen=True)
class SweepPointResult:
    """One grid point's merged outcome.

    Attributes
    ----------
    overrides:
        The dotted-path assignment that produced this point (empty for a
        grid-less sweep).
    spec:
        The fully resolved point spec (all of its evaluation seeds).
    result:
        The merged :class:`ScenarioResult`, bit-identical to
        ``run(spec)``.
    cached_seeds / executed_seeds:
        Which seeds were served from the store vs actually run, in seed
        order.
    """

    overrides: dict
    spec: ScenarioSpec
    result: ScenarioResult
    cached_seeds: tuple
    executed_seeds: tuple


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced, point by point.

    ``executions`` counts distinct sub-runs that actually executed;
    it can be below ``executed_jobs`` when grid points share identical
    sub-specs (deduplicated by spec hash within the sweep).
    """

    spec: ScenarioSpec
    grid: dict
    points: tuple
    executions: int = 0

    @property
    def total_jobs(self) -> int:
        return sum(len(p.cached_seeds) + len(p.executed_seeds) for p in self.points)

    @property
    def cached_jobs(self) -> int:
        return sum(len(p.cached_seeds) for p in self.points)

    @property
    def executed_jobs(self) -> int:
        return sum(len(p.executed_seeds) for p in self.points)

    @property
    def result(self) -> ScenarioResult:
        """The single point's result, for grid-less sweeps."""
        if len(self.points) != 1:
            raise ValueError(
                f"sweep has {len(self.points)} points; index .points[i].result instead"
            )
        return self.points[0].result


def sweep(
    spec,
    grid: Optional[Mapping] = None,
    *,
    workers: int = 1,
    store: Union[ResultStore, str, Path, None] = None,
    use_cache: bool = True,
    echo: bool = False,
) -> SweepResult:
    """Run a scenario (or a grid of variants) as parallel single-seed sub-runs.

    Parameters
    ----------
    spec:
        The base scenario, or anything :meth:`ScenarioSpec.from_dict`
        accepts.
    grid:
        Optional ``{dotted.path: [values]}`` sweep axes (the ``--set``
        paths), expanded by :func:`expand_grid`.
    workers:
        Process count.  ``1`` executes in-process (still through the same
        serialise → run → deserialise pipeline as the pool, so results are
        representation-identical) and ``> 1`` fans sub-runs out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    store:
        Optional :class:`ResultStore` (or a directory path for one).
        Completed sub-runs persist as soon as they finish, keyed by spec
        hash, and later sweeps reuse them.
    use_cache:
        When ``False``, skip store lookups (every sub-run executes) but
        still write fresh results back — a forced refresh.
    echo:
        Forwarded to :func:`repro.api.run` in each sub-run.
    """
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec.from_dict(spec)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise SpecValidationError(f"workers must be an int >= 1, got {workers!r}")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    assignments = expand_grid(grid)
    point_specs = [spec.with_updates(a) if a else spec for a in assignments]

    # One job per (grid point, seed): the sweep's unit of work.
    jobs: list[tuple[int, int, ScenarioSpec, str]] = []
    for point_index, point_spec in enumerate(point_specs):
        for seed, sub_spec in decompose(point_spec):
            jobs.append((point_index, seed, sub_spec, sub_spec.spec_hash()))

    results: dict[int, ScenarioResult] = {}
    cached = [False] * len(jobs)
    pending: dict[str, list[int]] = {}  # spec hash -> job indices (dedup)
    for job_index, (_, _, sub_spec, digest) in enumerate(jobs):
        hit = store.get(sub_spec) if (store is not None and use_cache) else None
        if hit is not None:
            results[job_index] = hit
            cached[job_index] = True
        else:
            pending.setdefault(digest, []).append(job_index)

    def _record(digest: str, result_dict: dict) -> None:
        job_indices = pending[digest]
        result = ScenarioResult.from_dict(result_dict)
        if store is not None:
            store.put(jobs[job_indices[0]][2], result)
        for job_index in job_indices:
            results[job_index] = result

    failures: dict[str, str] = {}
    if not pending:
        pass
    elif workers == 1:
        for digest, job_indices in pending.items():
            try:
                result_dict = _execute(jobs[job_indices[0]][2].to_dict(), echo)
            except Exception as exc:  # noqa: BLE001 - collected, raised after drain
                failures[digest] = f"{type(exc).__name__}: {exc}"
                continue
            _record(digest, result_dict)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {
                pool.submit(_execute, jobs[job_indices[0]][2].to_dict(), echo): digest
                for digest, job_indices in pending.items()
            }
            remaining = set(futures)
            while remaining:
                # Persist each sub-run the moment it lands, so an
                # interrupted sweep resumes from everything that finished.
                # A failed future must not abort the drain: every job that
                # completed in the same batch still records (and persists).
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    digest = futures[future]
                    try:
                        result_dict = future.result()
                    except Exception as exc:  # noqa: BLE001 - collected below
                        failures[digest] = f"{type(exc).__name__}: {exc}"
                        continue
                    _record(digest, result_dict)

    if failures:
        raise SweepExecutionError(failures)

    points = []
    for point_index, point_spec in enumerate(point_specs):
        point_jobs = [j for j, job in enumerate(jobs) if job[0] == point_index]
        points.append(
            SweepPointResult(
                overrides=dict(assignments[point_index]),
                spec=point_spec,
                result=merge_results(point_spec, [results[j] for j in point_jobs]),
                cached_seeds=tuple(jobs[j][1] for j in point_jobs if cached[j]),
                executed_seeds=tuple(jobs[j][1] for j in point_jobs if not cached[j]),
            )
        )
    return SweepResult(
        spec=spec,
        grid={k: list(v) for k, v in (grid or {}).items()},
        points=tuple(points),
        executions=len(pending),
    )


__all__ = [
    "SweepExecutionError",
    "SweepPointResult",
    "SweepResult",
    "decompose",
    "expand_grid",
    "sweep",
]
