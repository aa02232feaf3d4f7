"""Telemetry records: schema, counter fidelity, and JSON-lines I/O."""

import json

import pytest

from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.runner import Request, run
from repro.suite.registry import load_program
from repro.telemetry import (
    SCHEMA_VERSION,
    TelemetryWriter,
    error_record,
    peak_rss_kb,
    read_jsonl,
    result_record,
    result_records,
    write_jsonl,
)


def _suite_report(names, jobs=None, force_pool=False):
    return run([Request.build("analyze", name,
                              flavors=("insensitive", "sensitive"))
                for name in names], jobs, force_pool=force_pool)


@pytest.fixture(scope="module")
def anagram_ci():
    program = load_program("anagram", cache=False)
    return program, analyze_insensitive(program)


class TestResultRecord:
    def test_schema_and_identity(self, anagram_ci):
        program, ci = anagram_ci
        record = result_record("anagram", ci, "batched")
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "analysis"
        assert record["status"] == "ok"
        assert record["program"] == "anagram"
        assert record["flavor"] == "insensitive"
        assert record["schedule"] == "batched"

    def test_counters_match_as_dict(self, anagram_ci):
        _, ci = anagram_ci
        record = result_record("anagram", ci)
        assert record["counters"] == ci.counters.as_dict(extended=True)
        # The non-extended dict is a strict subset.
        for key, value in ci.counters.as_dict().items():
            assert record["counters"][key] == value

    def test_phases_cover_frontend_and_solve(self, anagram_ci):
        _, ci = anagram_ci
        phases = result_record("anagram", ci)["phases"]
        assert {"preprocess", "parse", "lower", "solve"} <= set(phases)
        assert all(seconds >= 0 for seconds in phases.values())
        assert phases["solve"] == round(ci.elapsed_seconds, 6)

    def test_process_facts(self, anagram_ci):
        _, ci = anagram_ci
        record = result_record("anagram", ci)
        assert record["cache"] == "off"
        assert isinstance(record["worker_pid"], int)
        assert 0 < record["peak_rss_kb"] <= peak_rss_kb()

    def test_json_serializable(self, anagram_ci):
        _, ci = anagram_ci
        round_tripped = json.loads(json.dumps(result_record("x", ci)))
        assert round_tripped["counters"] == \
            ci.counters.as_dict(extended=True)

    def test_per_flavor_records(self, anagram_ci):
        program, ci = anagram_ci
        cs = analyze_sensitive(program, ci_result=ci)
        records = result_records(
            "anagram", {"insensitive": ci, "sensitive": cs}, "batched")
        assert [r["flavor"] for r in records] \
            == ["insensitive", "sensitive"]
        # Frontend phases are program-level: identical across flavors.
        front = lambda r: {k: v for k, v in r["phases"].items()
                           if k != "solve"}
        assert front(records[0]) == front(records[1])
        assert records[1]["counters"] == cs.counters.as_dict(extended=True)


class TestErrorRecord:
    def test_shape(self):
        record = error_record("bc", "WorkerDied", "worker died", "tb...")
        assert record["kind"] == "error"
        assert record["status"] == "error"
        assert record["program"] == "bc"
        assert record["flavor"] is None
        assert record["error"] == {"kind": "WorkerDied",
                                   "message": "worker died",
                                   "traceback": "tb..."}


class TestParallelMatchesInline:
    """Acceptance gate: records shipped from workers carry the same
    transfer/meet counts an inline run produces."""

    def test_counters_cross_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = _suite_report(names=["anagram", "span"], jobs=2)
        inline_ci = analyze_insensitive(
            load_program("anagram", cache=False))
        (record,) = [r for r in report.records
                     if r["program"] == "anagram"
                     and r["flavor"] == "insensitive"]
        assert record["counters"] == \
            inline_ci.counters.as_dict(extended=True)
        # One record per (program, flavor).
        assert sorted((r["program"], r["flavor"])
                      for r in report.records) == [
            ("anagram", "insensitive"), ("anagram", "sensitive"),
            ("span", "insensitive"), ("span", "sensitive")]


class TestRssScope:
    """Regression: inline records used to report the *parent's*
    cumulative ``peak_rss_kb`` with nothing marking them as such, so
    later programs in a sweep inherited earlier programs' peaks and
    BENCH consumers compared them against worker-scoped numbers."""

    def test_inline_records_are_process_scoped(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = _suite_report(names=["anagram", "span"], jobs=1)
        for record in report.records:
            assert record["rss_scope"] == "process"
            # The delta attributes growth to *this* task; peak RSS
            # never decreases, so it is a non-negative int (or None
            # where the resource module is missing).
            delta = record["rss_delta_kb"]
            if record["peak_rss_kb"] is not None:
                assert isinstance(delta, int) and delta >= 0
                assert delta <= record["peak_rss_kb"]
            else:
                assert delta is None

    def test_worker_records_are_worker_scoped(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = _suite_report(names=["anagram", "span"], jobs=2,
                               force_pool=True)
        for record in report.records:
            assert record["rss_scope"] == "worker"
            # A worker's peak covers every task it ran; the delta,
            # taken from the task's own baseline, is what this one
            # added.
            delta = record["rss_delta_kb"]
            if record["peak_rss_kb"] is not None:
                assert isinstance(delta, int) and delta >= 0
                assert delta <= record["peak_rss_kb"]
            else:
                assert delta is None

    def test_worker_deltas_do_not_accumulate(self, tmp_path,
                                             monkeypatch):
        """A pool worker runs many tasks, so its raw peak is no one
        task's cost: per worker, the tasks' deltas sum to at most the
        worker's peak, whereas each raw peak already includes every
        earlier task's."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        names = ["anagram", "span", "cdecl", "part"]
        report = _suite_report(names=names, jobs=2, force_pool=True)
        if any(r["peak_rss_kb"] is None for r in report.records):
            pytest.skip("no resource module on this platform")
        by_worker = {}
        for record in report.records:
            # A task's flavors share its baseline: count it once.
            tasks = by_worker.setdefault(record["worker_pid"], {})
            tasks[record["program"]] = max(
                tasks.get(record["program"], 0), record["rss_delta_kb"])
        assert sum(len(tasks) for tasks in by_worker.values()) == \
            len(names)
        for pid, tasks in by_worker.items():
            peak = max(r["peak_rss_kb"] for r in report.records
                       if r["worker_pid"] == pid)
            assert sum(tasks.values()) <= peak

    def test_inline_deltas_do_not_accumulate(self, tmp_path,
                                             monkeypatch):
        """Each inline record's delta is measured from its own pre-task
        baseline, not from process start: the per-record deltas must
        sum to (at most) the total peak growth, whereas the raw peaks
        are cumulative and monotone."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = _suite_report(names=["anagram", "span", "cdecl"],
                               jobs=1)
        peaks = [r["peak_rss_kb"] for r in report.records]
        if any(p is None for p in peaks):
            pytest.skip("no resource module on this platform")
        assert peaks == sorted(peaks)  # the misattribution trap
        deltas = [r["rss_delta_kb"] for r in report.records]
        assert sum(deltas) <= peaks[-1]


class TestJsonLinesIO:
    def test_writer_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        records = [{"schema": 1, "kind": "analysis", "n": i}
                   for i in range(3)]
        with TelemetryWriter(path) as writer:
            count = writer.write_all(records)
        assert count == 3
        assert read_jsonl(path) == records

    def test_write_jsonl_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.jsonl"
        assert write_jsonl(path, [{"a": 1}]) == 1
        assert read_jsonl(path) == [{"a": 1}]

    def test_stdout_target(self, capsys):
        with TelemetryWriter("-") as writer:
            writer.write({"hello": "world"})
        assert json.loads(capsys.readouterr().out) == {"hello": "world"}
