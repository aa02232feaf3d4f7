"""Persistent lowering cache.

Lowering dominates a cold suite sweep (preprocess → parse → lower is
an order of magnitude slower than the CI fixpoint itself), and the
lowered :class:`~repro.ir.graph.Program` is a pure function of the
source text plus lowering options.  This module memoizes that function
on disk: programs are pickled under a content-hash key, so repeat
analyses of unchanged sources skip the whole frontend.

Key properties:

* **Content-hash keys over the true dependency set** — sha256 over the
  lowering version, the interpreter version, the bytes of *every file
  the mini-preprocessor actually opened* (the named inputs plus each
  transitively ``#include``\\ d header, as reported by
  ``Preprocessor.dependencies``), and the lowering options.  Editing a
  source file, any header it pulls in, or the options misses cleanly;
  bumping :data:`LOWERING_VERSION` (do this whenever lowering output
  changes shape) invalidates every prior entry at once.
* **Identity-safe pickling** — interned objects (access paths, access
  operators, points-to pairs) re-intern on load via their
  ``__reduce__`` hooks, so a cached program is indistinguishable from
  a freshly lowered one to the identity-based analyses.
* **Failure-transparent** — a corrupt, truncated, or version-skewed
  entry is treated as a miss (and deleted best-effort), never an
  error; cache *writes* are atomic (temp file + ``os.replace``) so a
  killed process cannot leave a half-written entry behind.  Temp files
  orphaned by a process killed between ``mkstemp`` and ``os.replace``
  are swept opportunistically on later writes — rate-limited to one
  directory glob per minute — and by :func:`clear_cache`; writers
  retry once if a concurrent sweeper reclaims their live temp file
  mid-write.
* **A small in-process memo** — the last :data:`_MEMO_KEPT` programs a
  process stored or loaded stay in memory, least recently used first
  out, so repeat loads skip unpickling while a long-lived process (a
  daemon pool worker solving each fresh program once) keeps a bounded
  number of programs, not every one it ever lowered.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import pickle
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..ir.graph import Program

#: Bump whenever the lowering pipeline's output changes shape —
#: invalidates every previously cached program.  v2: keys hash the
#: preprocessor-reported dependency set (headers included), not just
#: the named input files.  v3: programs may carry dense fact-table /
#: SCC-order extras, and entries are written with pickle protocol 5.
#: v4: word-packed fact sets and SCC-level / seed-plan /
#: dispatch extras in cached programs.  v5: the summary layer
#: (``analysis/incremental.py``) persists per-SCC analysis summaries
#: next to cached programs — bumped so lowered programs and the
#: summary store they anchor start from one coherent generation.
#: v6: ports pickle without their links, which each function graph
#: restores from a flat list (pickling no longer recurses once per
#: dataflow hop, so long functions neither overflow nor need a raised
#: recursion limit).
LOWERING_VERSION = 6

#: :class:`~repro.frontend.lower.ModuleLowerer`'s option defaults.
#: :func:`compute_key` skips an option passed at its default, so an
#: explicit ``hazard_model=False`` and an omitted one share an entry.
LOWERING_DEFAULTS = {"roots": None, "extern_policy": "warn",
                     "synthesize_root_environment": True,
                     "simplify": True, "sparse": True,
                     "hazard_model": False}

#: Default cache directory (relative to the working directory), and
#: the environment variables that override/disable it.
CACHE_DIR_NAME = ".repro-cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"


def caching_disabled() -> bool:
    """Global opt-out: ``REPRO_NO_CACHE=1`` disables all cache use."""
    return os.environ.get(NO_CACHE_ENV, "") not in ("", "0")


def resolve_cache_dir(cache: object = True) -> Optional[Path]:
    """Map a ``cache=`` argument to a directory, or ``None`` for off.

    ``True`` selects ``$REPRO_CACHE_DIR`` or ``./.repro-cache``;
    a string or path selects that directory; ``False``/``None``
    disables caching, as does ``REPRO_NO_CACHE=1``.
    """
    if not cache or caching_disabled():
        return None
    if isinstance(cache, (str, os.PathLike)):
        return Path(cache)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(CACHE_DIR_NAME)


def compute_key(sources: Sequence[Tuple[str, bytes]],
                include_dirs: Sequence = (),
                defines: Optional[Dict[str, str]] = None,
                options: Optional[dict] = None) -> str:
    """Content-hash key for one lowering invocation.

    ``sources`` is the full ``(name, bytes)`` dependency set —
    callers on the lowering path pass ``Preprocessor.dependencies``
    so edits to ``#include``\\ d headers change the key.  Options at
    their :data:`LOWERING_DEFAULTS` value do not enter the key.
    """
    h = hashlib.sha256()
    h.update(f"lowering-v{LOWERING_VERSION}".encode())
    h.update(f"py{sys.version_info[0]}.{sys.version_info[1]}".encode())
    for name, data in sources:
        h.update(b"\x00file\x00")
        h.update(name.encode(errors="replace"))
        h.update(b"\x00")
        h.update(data)
    for inc in include_dirs:
        h.update(f"\x00inc\x00{inc}".encode(errors="replace"))
    for key, value in sorted((defines or {}).items()):
        h.update(f"\x00def\x00{key}={value}".encode(errors="replace"))
    for key, value in sorted((options or {}).items()):
        if key in LOWERING_DEFAULTS and LOWERING_DEFAULTS[key] == value:
            continue
        h.update(f"\x00opt\x00{key}={value!r}".encode(errors="replace"))
    return h.hexdigest()


def key_for_files(paths: Sequence, include_dirs: Sequence = (),
                  defines: Optional[Dict[str, str]] = None,
                  options: Optional[dict] = None) -> str:
    """Key over exactly the given files (reads each file's bytes).

    For self-contained sources this equals the key the lowering path
    computes; sources that ``#include`` other files hash additional
    dependencies, so prefer :func:`compute_key` over
    ``Preprocessor.dependencies`` when exactness matters.
    """
    sources = [(str(p), Path(p).read_bytes()) for p in paths]
    return compute_key(sources, include_dirs, defines, options)


def _entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.pkl"


#: In-process memo over disk entries, least recently used first:
#: ``(cache_dir, key)`` → (disk entry's stat signature, program).
#: Repeat loads within one process — benchmark repeats, a suite sweep
#: re-reading a shared header's program, the report runner — skip
#: unpickling entirely (which costs several milliseconds per program).
#: Each memo hit is validated against the entry's current
#: ``(st_size, st_mtime_ns)``, so an entry rewritten, corrupted, or
#: deleted on disk behaves exactly as it would with no memo.  At most
#: ``_MEMO_KEPT`` programs stay (as many as the dependence graphs a
#: pool worker keeps, ``runner._GRAPHS``): a daemon worker lowers each
#: fresh program once, and an unbounded memo would hold every one's
#: object graph for the life of the worker.
_MEMO: "OrderedDict[Tuple[str, str], Tuple[Tuple[int, int], Program]]" = \
    OrderedDict()
_MEMO_KEPT = 8


def _memoize(memo_key: Tuple[str, str], signature: Tuple[int, int],
             program: Program) -> None:
    """Make ``program`` the memo's most recent entry, dropping the
    least recently used one past :data:`_MEMO_KEPT`."""
    _MEMO[memo_key] = (signature, program)
    _MEMO.move_to_end(memo_key)
    if len(_MEMO) > _MEMO_KEPT:
        _MEMO.popitem(last=False)


def load_program(cache_dir: Path, key: str) -> Optional[Program]:
    """Fetch a cached program, or ``None`` on miss or *any* failure.

    Corrupt entries (truncated pickle, wrong object type, unpicklable
    bytes) are silently removed and reported as a miss — the caller
    re-lowers and overwrites them.
    """
    path = _entry_path(cache_dir, key)
    memo_key = (str(cache_dir), key)
    try:
        stat = os.stat(path)
    except OSError:
        _MEMO.pop(memo_key, None)
        return None
    signature = (stat.st_size, stat.st_mtime_ns)
    memoized = _MEMO.get(memo_key)
    if memoized is not None and memoized[0] == signature:
        _MEMO.move_to_end(memo_key)
        return memoized[1]
    try:
        with open(path, "rb") as fh:
            # A program unpickles as one burst of small acyclic-until-
            # proven-otherwise allocations; keeping the cyclic GC out
            # of that burst is a measurable win on large graphs.
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                program = pickle.load(fh)
            finally:
                if was_enabled:
                    gc.enable()
    except FileNotFoundError:
        _MEMO.pop(memo_key, None)
        return None
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        _MEMO.pop(memo_key, None)
        return None
    if not isinstance(program, Program):
        try:
            path.unlink()
        except OSError:
            pass
        _MEMO.pop(memo_key, None)
        return None
    _memoize(memo_key, signature, program)
    return program


#: Orphaned ``*.tmp`` files older than this are reclaimed on cache
#: writes; young ones may belong to a live concurrent writer.
_STALE_TMP_AGE_SECONDS = 3600.0

#: Minimum seconds between stale-tmp sweeps of one cache directory.
#: The sweep is a full directory glob; paying it on *every* store made
#: write-heavy sweeps O(entries) per write for a cleanup whose point
#: is reclaiming hour-old leftovers.
_SWEEP_INTERVAL_SECONDS = 60.0

#: Cache directory → monotonic time of its last sweep (process-local).
_last_sweep: Dict[str, float] = {}


def _sweep_stale_tmps(cache_dir: Path,
                      max_age: float = _STALE_TMP_AGE_SECONDS) -> int:
    """Best-effort removal of temp files orphaned by killed writers
    (a process that died between ``mkstemp`` and ``os.replace``).
    ``max_age <= 0`` removes every temp file regardless of age."""
    removed = 0
    try:
        now = time.time()
        for tmp in cache_dir.glob("*.tmp"):
            try:
                if max_age <= 0 or now - tmp.stat().st_mtime > max_age:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
    except OSError:
        pass
    return removed


def _maybe_sweep_stale_tmps(cache_dir: Path) -> int:
    """Rate-limited :func:`_sweep_stale_tmps`: at most one sweep per
    directory per :data:`_SWEEP_INTERVAL_SECONDS`, so back-to-back
    stores don't re-glob the directory for nothing."""
    marker = str(cache_dir)
    now = time.monotonic()
    last = _last_sweep.get(marker)
    if last is not None and now - last < _SWEEP_INTERVAL_SECONDS:
        return 0
    _last_sweep[marker] = now
    return _sweep_stale_tmps(cache_dir)


def store_program(cache_dir: Path, key: str, program: Program) -> bool:
    """Write a program to the cache atomically; returns success.

    Failures (unwritable directory, unpicklable payload, recursion
    depth on pathologically nested values) are swallowed: the cache is
    an optimization, never a correctness dependency.
    """
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        _maybe_sweep_stale_tmps(cache_dir)
        # One retry: a concurrent process's stale-tmp sweep can (with
        # a skewed clock, or a writer stalled past the age cutoff)
        # reclaim *this* writer's live temp file between mkstemp and
        # os.replace — the publish then raises FileNotFoundError.  The
        # write is idempotent, so a second attempt with a fresh temp
        # file recovers instead of silently dropping the store.
        for attempt in (0, 1):
            fd, tmp_name = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    # Protocol 5 explicitly: framed out-of-band-capable
                    # format with the fastest load path, independent of
                    # what HIGHEST_PROTOCOL resolves to.  A structure
                    # nested deeper than the recursion limit (say, a
                    # type thousands of levels deep) raises
                    # RecursionError: the store is skipped below.
                    pickle.dump(program, fh, protocol=5)
                entry = _entry_path(cache_dir, key)
                try:
                    os.replace(tmp_name, entry)
                except FileNotFoundError:
                    if attempt == 0:
                        continue
                    return False
                try:
                    stat = os.stat(entry)
                except OSError:
                    pass
                else:
                    _memoize((str(cache_dir), key),
                             (stat.st_size, stat.st_mtime_ns), program)
                return True
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        return False
    except Exception:
        return False


def forget_loaded(cache: object = True) -> int:
    """Drop in-process memo entries for a cache directory, leaving the
    disk entries intact; returns the number dropped.

    The next :func:`load_program` for each dropped key re-unpickles
    from disk and yields a *fresh* ``Program`` object rather than the
    memoized one.  Tests and the fuzz deep checks use this to exercise
    the disk round-trip explicitly (and to avoid object aliasing
    between a stored program and its reload).
    """
    cache_dir = resolve_cache_dir(cache)
    if cache_dir is None:
        return 0
    prefix = str(cache_dir)
    stale = [k for k in _MEMO if k[0] == prefix]
    for memo_key in stale:
        del _MEMO[memo_key]
    return len(stale)


def clear_cache(cache: object = True) -> int:
    """Delete all cache entries (including orphaned temp files);
    returns the number removed."""
    cache_dir = resolve_cache_dir(cache)
    if cache_dir is None or not cache_dir.is_dir():
        return 0
    prefix = str(cache_dir)
    for memo_key in [k for k in _MEMO if k[0] == prefix]:
        del _MEMO[memo_key]
    removed = 0
    for entry in itertools.chain(cache_dir.glob("*.pkl"),
                                 cache_dir.glob("*.tmp")):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed
