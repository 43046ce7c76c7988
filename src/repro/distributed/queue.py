"""The filesystem work-queue protocol behind distributed sweeps.

A :class:`TaskQueue` is a directory on a filesystem every participant can
see.  Tasks are spec-hash-named JSON files whose *location* encodes their
state, so every transition is a single atomic filesystem operation::

    <queue>/
      queue.json            # {"format", "store", "lease_seconds", ...}
      sealed.json           # coordinator: the full expected digest list
      pending/<hh>/<hash>.json   # runnable (payload + attempts + not_before)
      active/<hash>.json         # claimed; this file IS the lease
      done/<hh>/<hash>.json      # completion marker (result lives in the store)
      failed/<hash>.json         # poisoned: terminal after max_attempts
      progress.json         # coordinator-maintained per-cell progress

Claiming is ``os.rename(pending/… , active/…)`` — POSIX rename removes the
source, so of two workers racing one task exactly one rename succeeds and
the loser gets ``FileNotFoundError``.  The active file doubles as the
lease: the claimer rewrites it (atomically) with its worker id and an
``expires`` deadline, and renews the deadline from a heartbeat thread
while executing.  Any worker finding an active file past its deadline
*steals* it — rename into a private ``.steal-*`` temp (again one winner),
bump the attempt counter, and requeue it as pending — so a crashed or
wedged worker's tasks flow back into the pool.  After ``max_attempts``
total attempts a task is written to ``failed/`` instead of requeued: one
poisoned cell no longer aborts a 10k-cell sweep.

Two properties make the inevitable races harmless rather than merely
unlikely: results are content-addressed (a task executed twice — e.g. a
stolen lease whose original worker was slow, not dead — produces
byte-identical :class:`~repro.api.store.ResultStore` entries), and every
multi-step transition leaves the task either in a scannable state or in a
``.steal-*`` temp that :meth:`recover` adopts after a lease period.

NFS caveats: lease expiry compares the coordinator/worker clocks through
``time.time()``, so keep hosts NTP-synced and leases generous (seconds,
not milliseconds); rename atomicity holds on NFSv3+ for files within one
directory, which is all the protocol uses.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.faults import fault_point
from repro.utils.caching import atomic_write_text, sharded_digests, sharded_entry_path

#: Bump when the on-disk task/lease schema changes.
QUEUE_FORMAT = 1


class QueueError(RuntimeError):
    """A queue directory is missing, mismatched or structurally invalid."""


@dataclass(frozen=True)
class Task:
    """One claimed unit of work: a serialised single-seed sub-spec.

    ``attempts`` counts executions *started* before this claim (a steal of
    a crashed worker's lease counts the crashed attempt), so
    ``attempts + 1`` is the attempt the holder is about to run.
    """

    digest: str
    spec: dict
    attempts: int
    claimed_at: float
    expires: float


def _read_json(path: Path) -> Optional[dict]:
    """The parsed entry at ``path``, or ``None`` if unreadable/corrupt."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


class TaskQueue:
    """One participant's handle on a shared work-queue directory.

    Open with :meth:`create` (coordinator: writes ``queue.json``) or
    :meth:`open` (workers: requires it).  All mutating methods take an
    optional ``now`` so tests drive the lease clock explicitly.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        worker_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
    ):
        self.directory = Path(directory)
        meta = _read_json(self.directory / "queue.json")
        if meta is None or meta.get("format") != QUEUE_FORMAT:
            raise QueueError(
                f"{self.directory} is not an initialised task queue "
                "(create it with TaskQueue.create or 'runner sweep --executor queue')"
            )
        self.meta = meta
        self.worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
        self.lease_seconds = float(lease_seconds or meta["lease_seconds"])
        self.max_attempts = int(meta["max_attempts"])
        self.backoff_seconds = float(meta["backoff_seconds"])
        self._pending = self.directory / "pending"
        self._active = self.directory / "active"
        self._done = self.directory / "done"
        self._failed = self.directory / "failed"

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        store: Union[str, Path],
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        backoff_seconds: float = 1.0,
        worker_id: Optional[str] = None,
    ) -> "TaskQueue":
        """Initialise (or re-open) a queue directory bound to a result store.

        Re-opening an existing queue is how an interrupted sweep resumes;
        binding it to a *different* store is refused, because done markers
        would then point at results the coordinator cannot see.
        """
        directory = Path(directory)
        if lease_seconds <= 0 or backoff_seconds < 0 or max_attempts < 1:
            raise QueueError(
                "lease_seconds must be > 0, backoff_seconds >= 0, max_attempts >= 1"
            )
        store = str(Path(store).resolve())
        existing = _read_json(directory / "queue.json")
        if existing is not None:
            if existing.get("store") != store:
                raise QueueError(
                    f"queue {directory} is bound to store {existing.get('store')!r}, "
                    f"not {store!r}; use a fresh queue directory per store"
                )
        else:
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                directory / "queue.json",
                json.dumps(
                    {
                        "format": QUEUE_FORMAT,
                        "store": store,
                        "lease_seconds": lease_seconds,
                        "max_attempts": max_attempts,
                        "backoff_seconds": backoff_seconds,
                    },
                    indent=2,
                ),
            )
        queue = cls(directory, worker_id=worker_id)
        for state_dir in (queue._pending, queue._active, queue._done, queue._failed):
            state_dir.mkdir(parents=True, exist_ok=True)
        return queue

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        worker_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
        wait: float = 0.0,
        poll_interval: float = 0.25,
    ) -> "TaskQueue":
        """Open an existing queue, optionally waiting for it to appear.

        ``wait`` covers the worker-before-coordinator startup race: CI (and
        humans) can launch ``runner worker`` processes first and let them
        block until the coordinator writes ``queue.json``.
        """
        deadline = time.time() + wait
        while True:
            try:
                return cls(directory, worker_id=worker_id, lease_seconds=lease_seconds)
            except QueueError:
                if time.time() >= deadline:
                    raise
                time.sleep(poll_interval)

    @property
    def store_directory(self) -> Path:
        """The result store every participant records into."""
        return Path(self.meta["store"])

    # -- coordinator side ----------------------------------------------

    def enqueue(self, spec_dict: dict, digest: str, *, now: Optional[float] = None) -> bool:
        """Add a task unless the digest already exists in any state.

        Returns ``True`` when a new pending entry was written — resuming a
        sweep re-enqueues nothing that is already pending, active, done or
        poisoned.
        """
        if self.state_of(digest) is not None:
            return False
        self._write_pending(digest, spec_dict, attempts=0, not_before=now or time.time())
        return True

    def seal(self, expected: Iterable[str]) -> None:
        """Declare the full task list complete (no further enqueues).

        Draining workers (``runner worker --drain``) exit once the queue is
        sealed and empty; until the seal lands they keep polling, which is
        what lets workers start before the coordinator.
        """
        atomic_write_text(
            self.directory / "sealed.json",
            json.dumps({"format": QUEUE_FORMAT, "expected": sorted(expected)}, indent=2),
        )

    def expected(self) -> Optional[list]:
        """The sealed digest list, or ``None`` while the queue is open."""
        data = _read_json(self.directory / "sealed.json")
        return None if data is None else list(data.get("expected", []))

    def write_progress(self, payload: dict) -> Path:
        """Atomically publish coordinator progress (read by humans/tools)."""
        return atomic_write_text(
            self.directory / "progress.json", json.dumps(payload, indent=2)
        )

    # -- state inspection ----------------------------------------------

    def state_of(self, digest: str) -> Optional[str]:
        """``"done"|"failed"|"active"|"pending"`` or ``None`` (no trace)."""
        if sharded_entry_path(self._done, digest).is_file():
            return "done"
        if (self._failed / f"{digest}.json").is_file():
            return "failed"
        if (self._active / f"{digest}.json").is_file():
            return "active"
        if sharded_entry_path(self._pending, digest).is_file():
            return "pending"
        return None

    def states(self) -> dict:
        """Every known digest mapped to its state (done wins over stale dupes)."""
        states: dict = {}
        for digest in sharded_digests(self._pending):
            states[digest] = "pending"
        for path in self._flat_entries(self._active):
            states[path.stem] = "active"
        for path in self._flat_entries(self._failed):
            states[path.stem] = "failed"
        for digest in sharded_digests(self._done):
            states[digest] = "done"
        return states

    def counts(self) -> dict:
        tally = {"pending": 0, "active": 0, "done": 0, "failed": 0}
        for state in self.states().values():
            tally[state] += 1
        return tally

    def drained(self) -> bool:
        """Sealed with nothing runnable left — the worker exit condition."""
        if self.expected() is None:
            return False
        if any(self._pending.glob("??/*.json")) or self._flat_entries(self._active):
            return False
        return not self._steal_temps()

    def failure(self, digest: str) -> Optional[dict]:
        """The terminal failure record for a poisoned digest, if any."""
        return _read_json(self._failed / f"{digest}.json")

    @staticmethod
    def _flat_entries(state_dir: Path) -> list:
        return [p for p in state_dir.glob("*.json") if not p.name.startswith(".")]

    def _steal_temps(self) -> list:
        return sorted(self._active.glob(".steal-*"))

    # -- worker side ---------------------------------------------------

    def claim(self, *, now: Optional[float] = None) -> Optional[Task]:
        """Claim one runnable task, or ``None`` if nothing is claimable.

        Recovers expired leases and stale steal temps first, then races
        for pending entries in random order (randomisation spreads k
        workers across the shard list instead of piling them on the
        lexicographically first task).
        """
        now = time.time() if now is None else now
        fault_point("queue.claim")
        self.recover(now=now)
        candidates = sharded_digests(self._pending)
        random.shuffle(candidates)
        for digest in candidates:
            task = self._try_claim(digest, now)
            if task is not None:
                return task
        return None

    def _try_claim(self, digest: str, now: float) -> Optional[Task]:
        pending_path = sharded_entry_path(self._pending, digest)
        record = _read_json(pending_path)
        if record is None:
            # Corrupt pending entry: drop it so the digest reads as *lost*
            # and the coordinator's lost-task pass re-enqueues a fresh copy.
            try:
                pending_path.unlink()
            except OSError:
                pass
            return None
        if record.get("not_before", 0.0) > now:
            return None  # still backing off after a failure
        active_path = self._active / f"{digest}.json"
        try:
            os.rename(pending_path, active_path)
        except OSError:
            return None  # another worker won the rename
        lease = dict(record)
        lease.update(
            worker=self.worker_id,
            claimed_at=now,
            expires=now + self.lease_seconds,
        )
        atomic_write_text(active_path, json.dumps(lease))
        return Task(
            digest=digest,
            spec=record["spec"],
            attempts=int(record.get("attempts", 0)),
            claimed_at=now,
            expires=lease["expires"],
        )

    def heartbeat(self, task: Task, *, now: Optional[float] = None) -> Optional[Task]:
        """Renew the lease; ``None`` means it was stolen (keep going anyway —
        the eventual ``ResultStore.put`` is idempotent — but stop renewing)."""
        now = time.time() if now is None else now
        fault_point("queue.heartbeat")
        active_path = self._active / f"{task.digest}.json"
        record = _read_json(active_path)
        if record is None or record.get("worker") != self.worker_id:
            return None
        record["expires"] = now + self.lease_seconds
        atomic_write_text(active_path, json.dumps(record))
        return replace(task, expires=record["expires"])

    def complete(
        self, task: Task, *, duration: Optional[float] = None, now: Optional[float] = None
    ) -> None:
        """Mark a task done (its result is already in the store) and release it.

        The active entry is only unlinked if this worker still holds the
        lease — after a steal it belongs to someone else mid-execution.
        """
        now = time.time() if now is None else now
        fault_point("queue.complete")
        atomic_write_text(
            sharded_entry_path(self._done, task.digest),
            json.dumps(
                {
                    "format": QUEUE_FORMAT,
                    "hash": task.digest,
                    "worker": self.worker_id,
                    "attempts": task.attempts + 1,
                    "completed_at": now,
                    "duration": duration,
                }
            ),
        )
        self._release_if_held(task.digest)

    def release(self, task: Task, error: str, *, now: Optional[float] = None) -> str:
        """Return a failed task to the pool, or poison it after max attempts.

        Requeued tasks carry ``not_before = now + backoff * 2^(attempts-1)``
        so a deterministic crasher does not hot-loop the fleet; the return
        value is the resulting state (``"pending"`` or ``"failed"``).
        """
        now = time.time() if now is None else now
        attempts = task.attempts + 1
        if attempts >= self.max_attempts:
            atomic_write_text(
                self._failed / f"{task.digest}.json",
                json.dumps(
                    {
                        "format": QUEUE_FORMAT,
                        "hash": task.digest,
                        "attempts": attempts,
                        "worker": self.worker_id,
                        "error": error,
                        "failed_at": now,
                    },
                    indent=2,
                ),
            )
            self._release_if_held(task.digest)
            return "failed"
        backoff = self.backoff_seconds * (2 ** (attempts - 1))
        self._write_pending(
            task.digest, task.spec, attempts=attempts, not_before=now + backoff, error=error
        )
        self._release_if_held(task.digest)
        return "pending"

    def requeue(self, task: Task, *, now: Optional[float] = None) -> bool:
        """Gracefully hand a *healthy* claimed task back to the pool.

        Unlike :meth:`release` this does **not** bump the attempt counter
        or apply backoff — it is the shutdown path: a worker draining on
        SIGTERM returns its in-flight task so another worker picks it up
        immediately, without burning one of the task's ``max_attempts``.
        Returns ``False`` (and does nothing) when the lease was already
        stolen or the task already completed.
        """
        now = time.time() if now is None else now
        active_path = self._active / f"{task.digest}.json"
        record = _read_json(active_path)
        if record is None or record.get("worker") != self.worker_id:
            return False
        if sharded_entry_path(self._done, task.digest).is_file():
            self._release_if_held(task.digest)
            return False
        self._write_pending(task.digest, task.spec, attempts=task.attempts, not_before=now)
        self._release_if_held(task.digest)
        return True

    def recover(self, *, now: Optional[float] = None) -> list:
        """Requeue expired leases and adopt stale steal temps.

        Every recovered digest gets ``attempts + 1`` — the lease holder
        started an execution that never reported back — so a task that
        only ever kills its workers still poisons out after
        ``max_attempts``.  Returns the recovered digests.
        """
        now = time.time() if now is None else now
        recovered = []
        for active_path in self._flat_entries(self._active):
            record = _read_json(active_path)
            if record is None:
                expires = self._mtime(active_path) + self.lease_seconds
            else:
                expires = float(record.get("expires") or self._mtime(active_path) + self.lease_seconds)
            if now < expires:
                continue
            temp = self._active / f".steal-{active_path.stem}-{self.worker_id}"
            try:
                os.rename(active_path, temp)
            except OSError:
                continue  # someone else is stealing it
            recovered.extend(self._adopt_temp(temp, now))
        # Steal temps a crashed *stealer* left behind: adoptable after a
        # lease period (their rename already removed the active entry).
        for temp in self._steal_temps():
            if now - self._mtime(temp) >= self.lease_seconds:
                recovered.extend(self._adopt_temp(temp, now))
        return recovered

    def _adopt_temp(self, temp: Path, now: float) -> list:
        record = _read_json(temp)
        digest = temp.name.split("-", 2)[1] if temp.name.startswith(".steal-") else None
        if record is not None and "spec" in record:
            digest = record.get("hash", digest)
            attempts = int(record.get("attempts", 0)) + 1
            if attempts >= self.max_attempts:
                atomic_write_text(
                    self._failed / f"{digest}.json",
                    json.dumps(
                        {
                            "format": QUEUE_FORMAT,
                            "hash": digest,
                            "attempts": attempts,
                            "worker": record.get("worker"),
                            "error": "lease expired: worker crashed or stalled "
                            f"{self.max_attempts} time(s)",
                            "failed_at": now,
                        },
                        indent=2,
                    ),
                )
            else:
                self._write_pending(digest, record["spec"], attempts=attempts, not_before=now)
        # Unreadable temp: drop it; the digest reads as lost and the
        # coordinator re-enqueues from its own copy of the spec.
        try:
            temp.unlink()
        except OSError:
            pass
        return [digest] if digest and record is not None and "spec" in record else []

    # -- shared helpers ------------------------------------------------

    def _write_pending(
        self,
        digest: str,
        spec_dict: dict,
        *,
        attempts: int,
        not_before: float,
        error: Optional[str] = None,
    ) -> None:
        record = {
            "format": QUEUE_FORMAT,
            "hash": digest,
            "spec": spec_dict,
            "attempts": attempts,
            "not_before": not_before,
        }
        if error is not None:
            record["last_error"] = error
        atomic_write_text(sharded_entry_path(self._pending, digest), json.dumps(record))

    def _release_if_held(self, digest: str) -> None:
        active_path = self._active / f"{digest}.json"
        record = _read_json(active_path)
        if record is not None and record.get("worker") == self.worker_id:
            try:
                active_path.unlink()
            except OSError:
                pass

    @staticmethod
    def _mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def __repr__(self) -> str:
        return f"TaskQueue({str(self.directory)!r}, worker_id={self.worker_id!r})"


__all__ = ["QUEUE_FORMAT", "QueueError", "Task", "TaskQueue"]
