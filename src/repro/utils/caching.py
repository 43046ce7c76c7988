"""Shared caching primitives: keyed LRU and sharded atomic disk entries.

Two disciplines several subsystems repeat — the in-memory keyed LRU behind
the engine's ``FactorisationCache`` and the LP layer's structure/optimum
caches, and the sharded atomic on-disk layout behind
``repro.api.store.ResultStore`` — live here once, so a fix to eviction or
atomic-write semantics applies everywhere.
"""

from __future__ import annotations

import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional, TypeVar

Value = TypeVar("Value")


class KeyedLRU:
    """A keyed LRU with hit/miss counters — the shared cache skeleton.

    True LRU, not FIFO: every hit refreshes recency (``move_to_end``), so
    a working set that is read on every step is never evicted by one-off
    entries.  Subclasses add only their key function and value builder.

    Safe under concurrent readers and writers (the routing service hits one
    cache from many request threads): map access is lock-guarded, and
    :meth:`lookup` is *single-flight* per key — concurrent lookups of the
    same missing key run the builder exactly once while the others wait for
    its result, and lookups of **different** keys build concurrently (the
    lock is never held across a ``build()`` call).
    """

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._pending: dict = {}  # key -> Event set when a build resolves
        self.hits = 0
        self.misses = 0

    def lookup(self, key, build: Callable[[], Value]) -> Value:
        """The cached value for ``key``, building (and counting a miss) once.

        If another thread is already building ``key``, wait for it instead
        of duplicating the work; if that build fails (or its entry is
        evicted before we re-check), take over as the builder.
        """
        while True:
            with self._lock:
                cached = self._store.get(key)
                if cached is not None:
                    self._store.move_to_end(key)
                    self.hits += 1
                    return cached
                event = self._pending.get(key)
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
                    self.misses += 1
                    break
            event.wait()
        try:
            value = build()
        except BaseException:
            with self._lock:
                self._pending.pop(key, None)
                event.set()  # waiters retry and become the builder
            raise
        with self._lock:
            self._insert_locked(key, value)
            self._pending.pop(key, None)
            event.set()
        return value

    def get(self, key) -> Optional[Value]:
        """The cached value refreshing its recency, or ``None`` (counts a hit)."""
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._store.move_to_end(key)
                self.hits += 1
            return cached

    def insert(self, key, value: Value) -> None:
        """Record ``value`` as most-recent, evicting the LRU entry if full."""
        with self._lock:
            self._insert_locked(key, value)

    def _insert_locked(self, key, value: Value) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


def sharded_entry_path(root: Path, digest: str) -> Path:
    """``<root>/<hh>/<digest>.json`` — two-level sharding keeps dirs small."""
    return root / digest[:2] / f"{digest}.json"


def sharded_digests(root: Path) -> list[str]:
    """Every stored digest under a sharded root, sorted.

    Temp files from in-flight (or crashed) writes are excluded explicitly —
    pathlib's ``*`` *does* match a leading dot, so a bare glob would list a
    ``.tmp-*`` leftover as a digest.
    """
    return sorted(
        path.stem for path in root.glob("??/*.json") if not path.name.startswith(".")
    )


def quarantine_entry(path: Path, reason: str) -> Optional[Path]:
    """Move a corrupt store entry aside as ``<name>.corrupt`` and warn once.

    Quarantined files keep the evidence for post-mortem while dropping out
    of ``sharded_digests`` (which only matches ``*.json``), so ``hashes()``
    and ``len()`` never count them and the next ``put`` rebuilds the entry
    cleanly.  Returns the quarantine path, or ``None`` if another process
    already moved or replaced the entry (the race is benign).
    """
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    warnings.warn(
        f"quarantined corrupt store entry {path.name} -> {target.name}: {reason}",
        RuntimeWarning,
        stacklevel=2,
    )
    return target


def atomic_write_text(path: Path, payload: str) -> Path:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    Creates parent directories as needed; an interrupted write never leaves
    a truncated entry, and the temp file is removed on any failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


__all__ = [
    "KeyedLRU",
    "atomic_write_text",
    "quarantine_entry",
    "sharded_digests",
    "sharded_entry_path",
]
