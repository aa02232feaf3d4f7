"""Fault isolation in the parallel driver.

One bad program must cost exactly one task: a worker that raises ships
back a structured error outcome, a worker that dies outright (here:
``os._exit`` injected via ``REPRO_FAULT_INJECT``, indistinguishable
from an OOM kill to the parent) breaks its pool but every survivor is
re-run in isolation and the dead task is named.  ``fail_fast=True``
restores the old abort-on-first-failure contract.
"""

import json

import pytest

from repro.errors import ReproError
from repro.runner import (
    FAULT_INJECT_ENV,
    Request,
    RunReport,
    TaskError,
    TaskOutcome,
    run,
)

NAMES = ["anagram", "backprop", "span"]


def _suite_report(names, jobs=None, flavors=("insensitive", "sensitive"),
                  fail_fast=False):
    return run([Request.build("analyze", name, flavors=flavors)
                for name in names], jobs, fail_fast=fail_fast)


def _files_report(paths, jobs=None):
    return run([Request.build("analyze", (path,), cache=False)
                for path in paths], jobs)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestRaisingWorker:
    """A worker exception fails its task, not the sweep."""

    def test_survivors_complete_parallel(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "backprop=raise")
        report = _suite_report(names=NAMES, jobs=2,
                               flavors=("insensitive",))
        assert not report.ok
        assert sorted(report.results) == ["anagram", "span"]
        (error,) = report.errors
        assert error.name == "backprop"
        assert error.kind == "ReproError"
        assert "injected fault" in error.message
        assert "injected fault" in (error.traceback or "")

    def test_survivors_complete_inline(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "span=raise")
        report = _suite_report(names=NAMES, jobs=1,
                               flavors=("insensitive",))
        assert sorted(report.results) == ["anagram", "backprop"]
        assert [e.name for e in report.errors] == ["span"]

    def test_outcomes_preserve_submission_order(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "anagram=raise")
        report = _suite_report(names=NAMES, jobs=2,
                               flavors=("insensitive",))
        assert [o.name for o in report.outcomes] == NAMES
        assert not report.outcomes[0].ok
        assert report.outcomes[1].ok and report.outcomes[2].ok

    def test_error_record_emitted(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "backprop=raise")
        report = _suite_report(names=NAMES, jobs=2,
                               flavors=("insensitive",))
        (record,) = [r for r in report.records if r["kind"] == "error"]
        assert record["program"] == "backprop"
        assert record["error"]["kind"] == "ReproError"
        # The worker that raised wrote it, with its task's baseline.
        assert record["rss_scope"] == "worker"
        assert "rss_delta_kb" in record
        assert json.dumps(record)  # JSON-serializable as-is


class TestKilledWorker:
    """A hard worker death (``os._exit``) is contained and named."""

    def test_dead_worker_named_survivors_returned(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "backprop=exit")
        report = _suite_report(names=NAMES, jobs=2,
                               flavors=("insensitive",))
        assert sorted(report.results) == ["anagram", "span"]
        (error,) = report.errors
        assert error.name == "backprop"
        assert error.kind == "WorkerDied"
        assert "backprop" in str(error)

    def test_dead_worker_error_record(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "span=exit")
        report = _suite_report(names=NAMES, jobs=2,
                               flavors=("insensitive",))
        (record,) = [r for r in report.records if r["kind"] == "error"]
        assert record["program"] == "span"
        assert record["error"]["kind"] == "WorkerDied"
        # The driver wrote it, about its own memory: no task's share.
        assert record["rss_scope"] == "process"
        assert record["rss_delta_kb"] is None

    def test_survivor_results_match_clean_run(self, monkeypatch):
        clean = _suite_report(names=["anagram"], jobs=1,
                              flavors=("insensitive",),
                              fail_fast=True).results
        monkeypatch.setenv(FAULT_INJECT_ENV, "span=exit")
        report = _suite_report(names=["anagram", "span"], jobs=2,
                               flavors=("insensitive",))
        survivor = report.results["anagram"]["insensitive"]
        assert survivor.counters.as_dict() \
            == clean["anagram"]["insensitive"].counters.as_dict()


class TestFailFast:
    def test_parallel_raises_naming_task(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "backprop=raise")
        with pytest.raises(ReproError, match="backprop"):
            _suite_report(names=NAMES, jobs=2,
                          flavors=("insensitive",), fail_fast=True)

    def test_inline_raises_naming_task(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "anagram=raise")
        with pytest.raises(ReproError, match="anagram"):
            _suite_report(names=NAMES, jobs=1,
                          flavors=("insensitive",), fail_fast=True)

    def test_back_compat_run_suite_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "anagram=raise")
        with pytest.raises(ReproError, match="anagram"):
            _suite_report(names=NAMES, jobs=2, flavors=("insensitive",),
                          fail_fast=True)


class TestRunFilesFaults:
    def test_bad_file_isolated(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text("int x; int *p = &x; int main(void){return *p;}")
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C at all ((((")
        report = _files_report([good, bad], jobs=2)
        assert not report.ok
        assert list(report.results) == [str(good)]
        (error,) = report.errors
        assert error.name == str(bad)

    def test_missing_file_isolated_inline(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text("int main(void){return 0;}")
        missing = tmp_path / "nope.c"
        report = _files_report([good, missing], jobs=1)
        assert list(report.results) == [str(good)]
        assert [e.name for e in report.errors] == [str(missing)]


class TestCorruptCacheUnderParallelSweep:
    def test_corrupt_entry_relowered_by_worker(self, tmp_path,
                                               monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        first = _suite_report(names=["anagram", "span"], jobs=2,
                              flavors=("insensitive",))
        assert first.ok
        entries = sorted(cache.glob("*.pkl"))
        assert len(entries) == 2
        for entry in entries:
            entry.write_bytes(b"corrupt" + entry.read_bytes()[:32])
        second = _suite_report(names=["anagram", "span"], jobs=2,
                               flavors=("insensitive",))
        assert second.ok
        for name in ("anagram", "span"):
            assert second.results[name]["insensitive"].counters.as_dict() \
                == first.results[name]["insensitive"].counters.as_dict()
        # The corrupt entries were replaced, not just skipped.
        assert all(r["cache"] == "miss" for r in second.records)
        third = _suite_report(names=["anagram", "span"], jobs=2,
                              flavors=("insensitive",))
        assert all(r["cache"] == "hit" for r in third.records)


class TestReportShape:
    def test_report_properties(self):
        ok = TaskOutcome(name="a", results={}, records=[{"kind": "x"}])
        bad = TaskOutcome(name="b",
                          error=TaskError(name="b", kind="E", message="m"),
                          records=[{"kind": "error"}])
        report = RunReport(outcomes=[ok, bad])
        assert not report.ok
        assert list(report.results) == ["a"]
        assert [e.name for e in report.errors] == ["b"]
        assert [r["kind"] for r in report.records] == ["x", "error"]
