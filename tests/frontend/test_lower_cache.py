"""Persistent lowering cache: hits, misses, corruption, invalidation."""

import inspect
import json
import os
import pickle
import time

import pytest

from repro.analysis.insensitive import analyze_insensitive
from repro.cli import main
from repro.frontend.cache import (
    CACHE_DIR_ENV,
    LOWERING_DEFAULTS,
    NO_CACHE_ENV,
    _sweep_stale_tmps,
    clear_cache,
    forget_loaded,
    key_for_files,
    resolve_cache_dir,
)
from repro.frontend.lower import ModuleLowerer, lower_file
from repro.ir.graph import Program

SOURCE = """
int g;
int *p;
void set(int **h) { *h = &g; }
int main(void) { set(&p); return *p; }
"""

EDITED = SOURCE.replace("int g;", "int g; int g2;")


@pytest.fixture
def cfile(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return path


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def _entries(cache_dir):
    return sorted(cache_dir.glob("*.pkl")) if cache_dir.is_dir() else []


class TestHitAndMiss:
    def test_miss_populates_then_hit(self, cfile, cache_dir):
        assert _entries(cache_dir) == []
        first = lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 1
        second = lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 1
        # An in-process hit is memoized: the same object graph comes
        # back without re-unpickling (interning state stays warm).
        assert second is first
        # After dropping the memo, the hit is a *distinct* object
        # graph off disk, with the same analysis.
        forget_loaded(cache_dir)
        third = lower_file(cfile, cache=cache_dir)
        assert third is not first
        assert isinstance(third, Program)
        a = analyze_insensitive(first)
        b = analyze_insensitive(third)
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_cache_off_by_default(self, cfile, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        lower_file(cfile)
        assert not (tmp_path / ".repro-cache").exists()

    def test_entry_is_keyed_by_content_hash(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        (entry,) = _entries(cache_dir)
        assert entry.stem == key_for_files([cfile])


class TestInvalidation:
    def test_source_edit_misses(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        cfile.write_text(EDITED)
        program = lower_file(cfile, cache=cache_dir)
        # A second entry appears, and the program reflects the edit.
        assert len(_entries(cache_dir)) == 2
        assert "g2" in {loc.describe() for loc in program.locations}

    def test_options_change_misses(self, cfile, cache_dir):
        assert key_for_files([cfile]) != key_for_files(
            [cfile], options={"model_library": False})

    def test_edit_then_revert_hits_original_entry(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        cfile.write_text(EDITED)
        lower_file(cfile, cache=cache_dir)
        cfile.write_text(SOURCE)
        lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 2


class TestDefaultOptions:
    """One lowering, one entry: an option passed at its default keys
    exactly like an omitted one."""

    def test_explicit_default_shares_the_omitted_key(self, cfile):
        plain = key_for_files([cfile])
        assert key_for_files([cfile],
                             options={"hazard_model": False}) == plain
        assert key_for_files([cfile],
                             options={"hazard_model": True}) != plain

    def test_defaults_match_the_lowerer(self):
        params = inspect.signature(ModuleLowerer.__init__).parameters
        defaults = {name: p.default for name, p in params.items()
                    if p.default is not inspect.Parameter.empty
                    and name not in ("linkage", "tu_name")}
        assert LOWERING_DEFAULTS == defaults

    def test_analyze_then_slice_share_one_entry(self, cfile, cache_dir,
                                                tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        assert main(["analyze", str(cfile)]) == 0
        assert len(_entries(cache_dir)) == 1
        forget_loaded(cache_dir)
        telemetry = tmp_path / "slice.jsonl"
        assert main(["slice", str(cfile), "--criterion", "prog.c:4",
                     "--telemetry", str(telemetry)]) == 0
        assert len(_entries(cache_dir)) == 1
        (record,) = [json.loads(line)
                     for line in telemetry.read_text().splitlines()]
        assert record["cache"] == "hit"


class TestHeaderInvalidation:
    """The key hashes the preprocessor-reported dependency set, so
    editing an ``#include``\\ d header misses — the bug fixed with
    ``LOWERING_VERSION`` 2 (keys previously hashed only the named
    input files and served stale programs after header edits)."""

    @pytest.fixture
    def project(self, tmp_path):
        header = tmp_path / "defs.h"
        header.write_text("int g;\nint *p;\n")
        cfile = tmp_path / "prog.c"
        cfile.write_text('#include "defs.h"\n'
                         "void set(int **h) { *h = &g; }\n"
                         "int main(void) { set(&p); return *p; }\n")
        return cfile, header

    def test_header_edit_misses(self, project, cache_dir):
        cfile, header = project
        lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 1
        header.write_text("int g;\nint g2;\nint *p;\n")
        program = lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 2
        assert "g2" in {loc.describe() for loc in program.locations}

    def test_header_revert_hits_original_entry(self, project, cache_dir):
        cfile, header = project
        original = header.read_text()
        lower_file(cfile, cache=cache_dir)
        header.write_text(original + "int extra;\n")
        lower_file(cfile, cache=cache_dir)
        header.write_text(original)
        lower_file(cfile, cache=cache_dir)
        assert len(_entries(cache_dir)) == 2

class TestTmpCleanup:
    """Orphaned ``*.tmp`` files (writer killed between ``mkstemp`` and
    ``os.replace``) must not accumulate forever."""

    def test_clear_cache_removes_tmps(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        orphan = cache_dir / "orphan123.tmp"
        orphan.write_bytes(b"half-written entry")
        assert clear_cache(cache_dir) == 2
        assert not orphan.exists()
        assert _entries(cache_dir) == []

    def test_store_sweeps_stale_tmps(self, cfile, cache_dir):
        cache_dir.mkdir()
        stale = cache_dir / "stale456.tmp"
        stale.write_bytes(b"orphan")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        lower_file(cfile, cache=cache_dir)
        assert not stale.exists()
        assert len(_entries(cache_dir)) == 1

    def test_store_keeps_fresh_tmps(self, cfile, cache_dir):
        # A young temp file may belong to a live concurrent writer.
        cache_dir.mkdir()
        fresh = cache_dir / "fresh789.tmp"
        fresh.write_bytes(b"in flight")
        lower_file(cfile, cache=cache_dir)
        assert fresh.exists()

    def test_sweep_all_ages(self, cache_dir):
        cache_dir.mkdir()
        (cache_dir / "a.tmp").write_bytes(b"x")
        (cache_dir / "b.tmp").write_bytes(b"y")
        assert _sweep_stale_tmps(cache_dir, max_age=0) == 2


class TestSweepRateLimit:
    """The sweep is a full directory glob; paying it on *every* store
    made write-heavy sweeps O(entries) per write (regression)."""

    def _stale(self, cache_dir, name):
        tmp = cache_dir / name
        tmp.write_bytes(b"orphan")
        old = time.time() - 7200
        os.utime(tmp, (old, old))
        return tmp

    def test_back_to_back_stores_sweep_once(self, cache_dir):
        from repro.frontend import cache as cache_mod

        cache_dir.mkdir()
        first = self._stale(cache_dir, "first.tmp")
        assert cache_mod._maybe_sweep_stale_tmps(cache_dir) == 1
        assert not first.exists()
        # A stale tmp appearing within the interval survives until the
        # next window — the limiter skips the glob entirely.
        second = self._stale(cache_dir, "second.tmp")
        assert cache_mod._maybe_sweep_stale_tmps(cache_dir) == 0
        assert second.exists()

    def test_interval_expiry_sweeps_again(self, cache_dir, monkeypatch):
        from repro.frontend import cache as cache_mod

        cache_dir.mkdir()
        assert cache_mod._maybe_sweep_stale_tmps(cache_dir) == 0
        stale = self._stale(cache_dir, "later.tmp")
        # Age the limiter's timestamp past the interval.
        marker = str(cache_dir)
        cache_mod._last_sweep[marker] -= \
            cache_mod._SWEEP_INTERVAL_SECONDS + 1
        assert cache_mod._maybe_sweep_stale_tmps(cache_dir) == 1
        assert not stale.exists()

    def test_limit_is_per_directory(self, tmp_path):
        from repro.frontend import cache as cache_mod

        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir(), two.mkdir()
        self._stale(one, "a.tmp")
        self._stale(two, "b.tmp")
        assert cache_mod._maybe_sweep_stale_tmps(one) == 1
        # A sweep of ``one`` must not consume ``two``'s budget.
        assert cache_mod._maybe_sweep_stale_tmps(two) == 1


class TestSweptTmpRace:
    """A concurrent process's sweep can reclaim *this* writer's live
    temp file between ``mkstemp`` and ``os.replace`` (skewed clock, or
    a writer stalled past the age cutoff); the publish then raises
    FileNotFoundError.  ``store_program`` must retry with a fresh temp
    file instead of silently dropping the entry (regression)."""

    def _lowered(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        return lower_file(path, cache=False)

    def test_store_survives_one_swept_tmp(self, tmp_path, monkeypatch):
        from repro.frontend import cache as cache_mod

        cache_dir = tmp_path / "cache"
        program = self._lowered(tmp_path)
        real_replace = os.replace
        raced = []

        def racing_replace(src, dst):
            if not raced:
                raced.append(src)
                os.unlink(src)  # the concurrent sweeper wins the race
            return real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", racing_replace)
        assert cache_mod.store_program(cache_dir, "key", program)
        assert raced  # the race really happened
        cache_mod.forget_loaded(cache_dir)
        assert cache_mod.load_program(cache_dir, "key") is not None
        assert not list(cache_dir.glob("*.tmp"))  # no leaked temps

    def test_store_gives_up_after_second_sweep(self, tmp_path,
                                               monkeypatch):
        from repro.frontend import cache as cache_mod

        cache_dir = tmp_path / "cache"
        program = self._lowered(tmp_path)

        def always_raced(src, dst):
            os.unlink(src)
            raise FileNotFoundError(src)

        monkeypatch.setattr(cache_mod.os, "replace", always_raced)
        assert not cache_mod.store_program(cache_dir, "key", program)
        assert not list(cache_dir.glob("*.tmp"))


class TestCorruption:
    def test_truncated_entry_relowers_silently(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        (entry,) = _entries(cache_dir)
        entry.write_bytes(entry.read_bytes()[:40])
        program = lower_file(cfile, cache=cache_dir)
        assert isinstance(program, Program)
        # The bad entry was replaced with a good one.
        (entry,) = _entries(cache_dir)
        with open(entry, "rb") as fh:
            assert isinstance(pickle.load(fh), Program)

    def test_garbage_entry_relowers_silently(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        (entry,) = _entries(cache_dir)
        entry.write_bytes(b"not a pickle at all")
        assert isinstance(lower_file(cfile, cache=cache_dir), Program)

    def test_wrong_type_entry_relowers_silently(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        (entry,) = _entries(cache_dir)
        entry.write_bytes(pickle.dumps({"not": "a program"}))
        assert isinstance(lower_file(cfile, cache=cache_dir), Program)


class TestEnvironment:
    def test_no_cache_env_disables(self, cfile, cache_dir, monkeypatch):
        monkeypatch.setenv(NO_CACHE_ENV, "1")
        lower_file(cfile, cache=cache_dir)
        assert _entries(cache_dir) == []
        assert resolve_cache_dir(True) is None

    def test_cache_dir_env_overrides_default(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv(CACHE_DIR_ENV, str(target))
        assert resolve_cache_dir(True) == target

    def test_clear_cache_counts_entries(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        assert clear_cache(cache_dir) == 1
        assert _entries(cache_dir) == []


class TestInProcessMemo:
    """Repeat loads within one process skip unpickling entirely,
    but never at the cost of disk-state fidelity."""

    def test_disk_rewrite_invalidates_memo(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        first = lower_file(cfile, cache=cache_dir)
        (entry,) = _entries(cache_dir)
        # A rewritten entry (different stat signature) must behave as
        # if the memo never existed: re-unpickled, fresh object.
        os.utime(entry, ns=(0, 0))
        second = lower_file(cfile, cache=cache_dir)
        assert second is not first
        assert isinstance(second, Program)

    def test_deleted_entry_misses_despite_memo(self, cfile, cache_dir):
        lower_file(cfile, cache=cache_dir)
        lower_file(cfile, cache=cache_dir)  # memo warm
        (entry,) = _entries(cache_dir)
        entry.unlink()
        program = lower_file(cfile, cache=cache_dir)
        assert program.extras.get("cache") == "miss"

    def test_forget_loaded_counts_and_scopes(self, cfile, tmp_path):
        cache_a = tmp_path / "cache-a"
        cache_b = tmp_path / "cache-b"
        lower_file(cfile, cache=cache_a)
        lower_file(cfile, cache=cache_b)
        assert forget_loaded(cache_a) == 1
        assert forget_loaded(cache_a) == 0  # already dropped
        assert forget_loaded(cache_b) == 1  # other dir untouched


def _distinct_programs(tmp_path, count):
    """``count`` self-contained sources, each with its own entry."""
    paths = []
    for serial in range(count):
        path = tmp_path / f"prog{serial}.c"
        path.write_text(SOURCE.replace("int g;", f"int g; int g{serial};"))
        paths.append(path)
    return paths


class TestMemoBound:
    """A long-lived process (a daemon pool worker) lowers each fresh
    program once; the memo keeps the most recently used few, not every
    program the process ever saw."""

    def _memo_keys(self, cache_dir, paths):
        return [(str(cache_dir), key_for_files([path])) for path in paths]

    def test_stores_past_the_bound_keep_the_bound(self, tmp_path,
                                                  cache_dir):
        from repro.frontend import cache as cache_mod

        kept = cache_mod._MEMO_KEPT
        paths = _distinct_programs(tmp_path, kept + 3)
        for path in paths:
            lower_file(path, cache=cache_dir)
        assert len(_entries(cache_dir)) == kept + 3
        assert list(cache_mod._MEMO) == self._memo_keys(cache_dir,
                                                        paths[3:])

    def test_loads_past_the_bound_keep_the_bound(self, tmp_path,
                                                 cache_dir):
        from repro.frontend import cache as cache_mod

        kept = cache_mod._MEMO_KEPT
        paths = _distinct_programs(tmp_path, kept + 3)
        for path in paths:
            lower_file(path, cache=cache_dir)
        forget_loaded(cache_dir)
        for path in paths:
            program = lower_file(path, cache=cache_dir)
            assert program.extras["cache"] == "hit"
        assert list(cache_mod._MEMO) == self._memo_keys(cache_dir,
                                                        paths[3:])

    def test_a_hit_refreshes_recency(self, tmp_path, cache_dir):
        from repro.frontend import cache as cache_mod

        kept = cache_mod._MEMO_KEPT
        paths = _distinct_programs(tmp_path, kept + 1)
        programs = [lower_file(path, cache=cache_dir)
                    for path in paths[:kept]]
        # The oldest entry, hit again, outlives the next one in.
        assert lower_file(paths[0], cache=cache_dir) is programs[0]
        lower_file(paths[kept], cache=cache_dir)
        oldest, evicted = self._memo_keys(cache_dir, paths[:2])
        assert oldest in cache_mod._MEMO
        assert evicted not in cache_mod._MEMO
        assert lower_file(paths[0], cache=cache_dir) is programs[0]
        assert lower_file(paths[1], cache=cache_dir) is not programs[1]


class TestCachedProgramFidelity:
    def test_loaded_program_analyzes_identically(self, cfile, cache_dir):
        fresh = lower_file(cfile, cache=cache_dir)
        loaded = lower_file(cfile, cache=cache_dir)
        for schedule in ("batched", "fifo"):
            a = analyze_insensitive(fresh, schedule=schedule)
            b = analyze_insensitive(loaded, schedule=schedule)
            assert a.counters.as_dict() == b.counters.as_dict()
            census = lambda r: sorted(
                (len(r.solution.pairs(o))
                 for o in r.solution.outputs()))
            assert census(a) == census(b)


_LONG_FUNCTION_STATEMENTS = 1300


def test_long_function_round_trips_through_the_cache(tmp_path):
    """Pickling a lowered program must not recurse along its dataflow
    chains: a straight-line ``main`` of 1,300 statements once overflowed
    the C stack while being stored.  Runs the CLI in subprocesses (a
    stack overflow kills the process): a cache miss that stores, a hit,
    and an uncached run all print the same stdout."""
    import re
    import subprocess
    import sys

    import repro

    body = "\n".join(["  *p = i; q = p;"] * _LONG_FUNCTION_STATEMENTS)
    path = tmp_path / "long.c"
    path.write_text("int i; int *p; int *q;\nint main(void) {\n"
                    f"{body}\n  return 0;\n}}\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")

    def run(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(path),
             "--sensitivity", "insensitive", *extra],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        return re.sub(r"\b\d+\.\d+s\b", "<elapsed>", proc.stdout)

    stored = run()
    assert list((tmp_path / "cache").glob("*.pkl"))
    assert run() == stored
    assert run("--no-cache") == stored
