"""Size-capped LRU eviction, shared by every long-lived cache tier.

Two consumers need the same policy with different substrates:

* the serve daemon's **in-memory** response-payload tier —
  :class:`LRUCache`, a thread-safe mapping with byte- and entry-count
  budgets and explicit hit/miss/eviction counters for telemetry;
* the **on-disk** summary store (:mod:`repro.analysis.incremental`)
  — :func:`evict_lru_files`, which applies the identical
  least-recently-*used* rule to a directory of immutable entries
  (recency is the file mtime; loaders bump it on each hit via
  :func:`touch`), so a long-lived process's store converges to its
  working set instead of growing without bound.

Both report evictions as monotone counters, surfaced in the daemon's
``/metrics`` and in ``kind="serve"`` telemetry records.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class LRUCache:
    """Thread-safe LRU mapping with entry-count and byte budgets.

    ``max_entries``/``max_bytes`` of ``None`` leave that budget
    unbounded.  Entry sizes come from ``sizeof`` (called once, at
    insertion — entries are treated as immutable) and default to 1,
    which makes ``max_bytes`` a second entry-count cap unless a real
    estimator is supplied.  A single oversized entry is still admitted
    (and evicts everything else): refusing it would make the tier
    useless for exactly the programs that need caching most.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 sizeof: Optional[Callable[[object], int]] = None,
                 name: str = "lru") -> None:
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizeof = sizeof or (lambda value: 1)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, Tuple[object, int]]" = \
            OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key):
        """The cached value, refreshed to most-recent, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key, value) -> None:
        size = max(0, int(self._sizeof(value)))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            self._evict_over_budget()

    def pop(self, key) -> None:
        """Drop one entry (not counted as an eviction: the caller
        removed it deliberately, the budget didn't)."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped
        (counted as evictions — this is the daemon's pressure valve)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.evictions += dropped
            return dropped

    def _evict_over_budget(self) -> None:
        # Caller holds the lock.  Never evict the just-inserted entry
        # down to zero: len > 1 keeps a lone oversized entry resident.
        while len(self._entries) > 1 and (
                (self.max_entries is not None
                 and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None
                    and self._bytes > self.max_bytes)):
            _, (_, size) = self._entries.popitem(last=False)
            self._bytes -= size
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``/metrics`` and telemetry records."""
        with self._lock:
            return {"entries": len(self._entries),
                    "bytes": self._bytes,
                    "hits": self.hits,
                    "misses": self.misses,
                    "evictions": self.evictions}


def touch(path: Path) -> None:
    """Best-effort recency bump for a disk cache entry just served.

    ``evict_lru_files`` orders victims by mtime; without the bump, a
    hot entry written long ago would be the first evicted.
    """
    try:
        os.utime(path, None)
    except OSError:
        pass


def evict_lru_files(root: Path, max_bytes: int,
                    patterns: Iterable[str] = ("*.pkl",)) -> int:
    """Delete oldest-mtime files under ``root`` until the matched set
    fits ``max_bytes``; returns the number deleted.

    Safe against concurrent writers and readers: entries here are
    content-addressed and immutable, so deleting one can only turn a
    future load into a miss (the caller re-solves and republishes —
    the same contract corruption already has).  Stat races (a file
    deleted underneath us) are swallowed.
    """
    if max_bytes is None or max_bytes < 0:
        return 0
    files: List[Tuple[float, int, Path]] = []
    total = 0
    try:
        for pattern in patterns:
            for path in root.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
    except OSError:
        return 0
    if total <= max_bytes:
        return 0
    files.sort()  # oldest first
    removed = 0
    for _, size, path in files:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
    return removed
