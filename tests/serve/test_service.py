"""The transport-free service core: endpoints, tiers, parity.

Everything here drives :class:`repro.serve.core.AnalysisService`
directly (no sockets) — the HTTP adapter has its own tests.  The
load-bearing property throughout is *parity*: a served digest must be
byte-identical to what the CLI code path computes for the same
program, whatever cache tier answered.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.serve import AnalysisService, ServeConfig

import repro

SOURCE = """
int g;
int *leaf(void) { return &g; }
int main(void) { int *p = leaf(); *p = 1; return 0; }
"""


@pytest.fixture
def service(tmp_path):
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    yield svc
    svc.shutdown()


def _cli_digests(source):
    program = repro.parse_source(source, name="<serve-test>")
    ci = repro.analyze_insensitive(program)
    cs = repro.analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def _served_digests(payload):
    return {flavor: entry["digest"]
            for flavor, entry in payload["flavors"].items()}


def test_analyze_source_matches_cli(service):
    status, payload = service.handle("analyze", {"source": SOURCE})
    assert status == 200
    assert payload["tier"] == "cold"
    assert _served_digests(payload) == _cli_digests(SOURCE)
    assert payload["flavors"]["insensitive"]["pairs"]["total"] > 0


def test_repeat_hits_the_solution_tier(service):
    _, first = service.handle("analyze", {"source": SOURCE})
    status, second = service.handle("analyze", {"source": SOURCE})
    assert status == 200
    assert second["tier"] == "solution"
    assert _served_digests(second) == _served_digests(first)
    assert service.metrics.tier_hits["solution"] == 1


@pytest.mark.parametrize("endpoint", ["analyze", "check"])
def test_summary_tier_across_service_restarts(tmp_path, endpoint):
    """A fresh daemon against a warm cache directory answers from the
    persisted SCC summaries: zero SCCs re-solved, same digests, and the
    ``summary`` tier for checks as well as analyses."""
    first = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        _, cold = first.handle(endpoint, {"source": SOURCE})
    finally:
        first.shutdown()
    assert cold["tier"] == "cold"

    second = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        status, warm = second.handle(endpoint, {"source": SOURCE})
    finally:
        second.shutdown()
    assert status == 200
    assert warm["tier"] == "summary"
    assert second.metrics.tier_hits["summary"] == 1
    assert second.metrics.tier_hits["lowering"] == 0
    assert _served_digests(warm) == _served_digests(cold)
    for entry in warm["flavors"].values():
        assert entry["dense"]["sccs_resolved"] == 0
        assert entry["dense"]["summary_scc_total"] > 0


def test_check_digests_match_cli_path(service, tmp_path):
    from repro.runner import run_check_report

    status, payload = service.handle(
        "check", {"program": "anagram", "flavors": ["insensitive"]})
    assert status == 200
    report = run_check_report(names=("anagram",),
                              flavors=("insensitive",),
                              cache=str(tmp_path), digest_only=True)
    want = report.outcomes[0].digests["insensitive"]
    entry = payload["flavors"]["insensitive"]
    assert entry["digest"] == want
    assert entry["findings"] > 0
    assert "witness" not in entry  # findings never reach the parent


def test_query_matches_object_level_answer(service):
    status, payload = service.handle(
        "query", {"source": SOURCE, "function": "main"})
    assert status == 200
    ops = payload["operations"]
    assert ops, "main dereferences p"
    program = repro.parse_source(SOURCE, name="<serve-test>")
    result = repro.analyze_insensitive(program)
    graph = program.functions["main"]
    want = {tuple(sorted(repr(p) for p in result.op_locations(node)))
            for node in graph.memory_operations() if node.is_indirect}
    got = {tuple(op["locations"]) for op in ops}
    assert got == want
    # Warm repeat answers from the payload LRU.
    _, again = service.handle("query", {"source": SOURCE,
                                        "function": "main"})
    assert again["tier"] == "solution"
    assert again["operations"] == ops


def test_query_filters_select_from_one_cached_answer(service,
                                                     monkeypatch):
    """``function`` and ``line`` filter the program's one cached
    operation list: a new filter over a program already queried needs
    no pool work, and answers what the filtered solve would."""
    _, full = service.handle("query", {"source": SOURCE})
    calls = _refuse_work(service, monkeypatch)
    ops = full["operations"]
    line = ops[0]["origin"].rsplit(":", 1)[1]
    for filters, want in [
            ({"function": "main"},
             [op for op in ops if op["function"] == "main"]),
            ({"function": "leaf"}, []),
            ({"line": int(line)}, ops),
            ({"function": "main", "line": "999"}, [])]:
        status, payload = service.handle(
            "query", dict(filters, source=SOURCE))
        assert status == 200, filters
        assert payload["tier"] == "solution"
        assert payload["operations"] == want, filters
    assert calls == []


#: Non-ASCII text in a comment: the spooled file must hold exactly the
#: body's UTF-8 bytes, whatever the locale's encoding.
UNICODE_SOURCE = "/* naïve → ünïcödé */\n" + SOURCE


def test_source_key_is_the_spooled_files_content_key(service):
    """An inline source is keyed from its bytes in memory: the lookup
    writes nothing, and its key is the one ``content_key`` computes
    over the file a miss then spools."""
    from repro.runner import content_key

    body = {"source": UNICODE_SOURCE}
    found = service.lookup("analyze", body)
    assert found.answer is None
    (spooled,) = found.request.target
    assert not Path(spooled).exists()
    status, _ = service.handle("analyze", body)
    assert status == 200
    assert Path(spooled).read_bytes() == UNICODE_SOURCE.encode("utf-8")
    assert found.key.target == content_key((spooled,))


def test_hit_neither_reads_nor_writes_the_spool(service):
    """A payload-LRU hit needs no spooled file; a miss on the same
    text (a new endpoint) spools it again."""
    body = {"source": UNICODE_SOURCE}
    status, _ = service.handle("analyze", body)
    assert status == 200
    spooled = Path(service.lookup("analyze", body).request.target[0])
    spooled.unlink()
    status, again = service.handle("analyze", body)
    assert status == 200
    assert again["tier"] == "solution"
    assert not spooled.exists()
    status, _ = service.handle("check", body)
    assert status == 200
    assert spooled.read_bytes() == UNICODE_SOURCE.encode("utf-8")


def test_cache_off_spools_to_a_directory_removed_at_shutdown():
    svc = AnalysisService(ServeConfig(workers=1, cache=False))
    try:
        status, payload = svc.handle("analyze", {"source": SOURCE})
        assert status == 200
        spooled = Path(payload["program"])
        assert spooled.read_bytes() == SOURCE.encode("utf-8")
    finally:
        svc.shutdown()
    assert not spooled.exists()
    assert not spooled.parent.parent.exists()


def test_each_request_looks_up_the_payload_lru_once(service):
    """Hits, misses and filtered queries alike cost one counted
    lookup; a body that cannot be keyed costs none."""
    bodies = [("analyze", {"source": SOURCE}),
              ("analyze", {"source": SOURCE}),
              ("query", {"source": SOURCE}),
              ("query", {"source": SOURCE, "function": "main"}),
              ("query", {"source": SOURCE, "line": 3}),
              ("check", {"source": SOURCE, "checkers": ["nullderef"]})]
    for endpoint, body in bodies:
        status, _ = service.handle(endpoint, body)
        assert status == 200
    assert service.handle("analyze", {"source": "\ud800"})[0] == 400
    stats = service.payloads.stats()
    assert (stats["hits"], stats["misses"]) == (3, 3)


HAZARD_SOURCE = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""


def test_service_process_never_lowers(service, tmp_path):
    """Every endpoint runs in a pool worker: the service's own process
    memoizes no program, whatever it serves."""
    from repro.frontend import cache

    path = tmp_path / "memo.c"
    path.write_text(HAZARD_SOURCE)
    # In recency order: a memo hit in this process would reorder it.
    before = list(cache._MEMO.items())
    for endpoint, extra in [("analyze", {}), ("check", {}), ("query", {}),
                            ("slice", {"criterion": "memo.c:6"}),
                            ("slice", {"finding": "nullderef"})]:
        status, payload = service.handle(
            endpoint, dict(extra, file=str(path)))
        assert status == 200, payload
    assert list(cache._MEMO.items()) == before


def test_flavor_subset_and_ordering(service):
    status, payload = service.handle(
        "analyze", {"source": SOURCE,
                    "flavors": ["flowinsensitive", "insensitive"]})
    assert status == 200
    assert list(payload["flavors"]) == ["insensitive", "flowinsensitive"]


@pytest.mark.parametrize("body,fragment", [
    ({}, "exactly one of"),
    ({"program": "anagram", "source": "int x;"}, "exactly one of"),
    ({"program": "no-such-program"}, "unknown suite program"),
    ({"file": "/no/such/file.c"}, "no such file"),
    ({"source": SOURCE, "flavors": ["bogus"]}, "subset"),
    ({"source": SOURCE, "flavors": []}, "subset"),
    ({"program": 42}, "non-empty string"),
    ({"source": "\ud800"}, "UTF-8"),
])
def test_bad_requests_are_400(service, body, fragment):
    status, payload = service.handle("analyze", body)
    assert status == 400
    assert fragment in payload["error"]


#: Per endpoint, the fields a well-formed request needs besides the
#: field under test.
_ENDPOINT_BODIES = {
    "analyze": {"source": SOURCE},
    "check": {"source": SOURCE},
    "query": {"source": SOURCE},
    "slice": {"source": SOURCE, "criterion": "x.c:1"},
}


def _refuse_work(service, monkeypatch):
    """Fail any request that reaches the pool; returns the list such
    attempts are recorded in."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("validation should have rejected this")

    monkeypatch.setattr(service.pool, "run", refuse)
    return calls


@pytest.mark.parametrize("endpoint", sorted(_ENDPOINT_BODIES))
@pytest.mark.parametrize("schedule", ["bogus", "scc", ["x"]])
def test_bad_schedule_is_400_before_any_work(service, monkeypatch,
                                             endpoint, schedule):
    calls = _refuse_work(service, monkeypatch)
    body = dict(_ENDPOINT_BODIES[endpoint], schedule=schedule)
    status, payload = service.handle(endpoint, body)
    assert status == 400, payload
    assert "unknown schedule" in payload["error"]
    assert "batched, fifo" in payload["error"]
    assert calls == []


@pytest.mark.parametrize("field,value", [("function", ["x"]),
                                         ("line", {"a": 1})])
def test_bad_query_filter_is_400_before_any_work(service, monkeypatch,
                                                 field, value):
    calls = _refuse_work(service, monkeypatch)
    status, payload = service.handle(
        "query", {"source": SOURCE, field: value})
    assert status == 400, payload
    assert repr(field) in payload["error"]
    assert calls == []


def test_unknown_checker_id_is_400(service):
    """A typo'd checker id is a client error, validated parent-side —
    not a worker-side crash surfacing as a 500."""
    status, payload = service.handle(
        "check", {"program": "anagram", "checkers": ["nulldref"]})
    assert status == 400
    assert "unknown checker" in payload["error"]
    assert "nullderef" in payload["error"]  # the suggestion list
    status, payload = service.handle(
        "check", {"program": "anagram", "checkers": [42]})
    assert status == 400
    assert "checker-id strings" in payload["error"]


@pytest.mark.parametrize("order", [("none", "all"), ("all", "none")])
def test_empty_checker_selection_is_its_own_answer(service, order):
    """``checkers: []`` selects no checker, as ``check --checkers ""``
    does; in either order it must not share a cached answer with the
    all-checkers request."""
    bodies = {"none": {"program": "anagram", "flavors": ["insensitive"],
                       "checkers": []},
              "all": {"program": "anagram", "flavors": ["insensitive"]}}
    found = {}
    for which in order:
        status, payload = service.handle("check", bodies[which])
        assert status == 200, payload
        found[which] = payload["flavors"]["insensitive"]["findings"]
    assert found["none"] == 0
    assert found["all"] > 0


def test_timed_out_work_holds_admission_as_zombie(tmp_path):
    """After a 504 releases its admission slot, the thread still
    grinding on the abandoned computation counts against admission
    (as a zombie) until it finishes — so newly admitted requests never
    queue behind work nobody is waiting for."""
    import threading
    import time

    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path),
                                      queue_limit=1))
    try:
        release = threading.Event()
        assert svc.try_begin()
        future = svc.executor.submit(release.wait)  # the stuck work
        svc.note_timeout(future)  # transport answered 504 ...
        svc.end()                 # ... and freed the admission slot
        # The busy thread still occupies capacity: shed, don't queue.
        assert not svc.try_begin()
        snap = svc.metrics_payload()
        assert snap["zombie_threads"] == 1
        assert snap["timeouts"] == 1
        release.set()
        future.result(timeout=10)
        deadline = time.monotonic() + 5
        while svc.metrics.zombies and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc.metrics.zombies == 0
        assert svc.try_begin()  # capacity is back
        svc.end()
    finally:
        svc.shutdown()


def test_unknown_endpoint_is_404(service):
    status, _ = service.handle("frobnicate", {})
    assert status == 404


def test_query_rejects_unknown_flavor(service):
    status, payload = service.handle(
        "query", {"source": SOURCE, "flavor": "bogus"})
    assert status == 400
    assert "flavor" in payload["error"]


def test_worker_error_is_500_and_daemon_survives(service):
    bad = "int main(void) { this is not C at all"
    status, payload = service.handle("analyze", {"source": bad})
    assert status == 500
    assert "error" in payload
    # The pool is intact: a good request still works.
    status, payload = service.handle("analyze", {"source": SOURCE})
    assert status == 200
    assert _served_digests(payload) == _cli_digests(SOURCE)


def test_metrics_shape_and_eviction_counters(service):
    service.handle("analyze", {"source": SOURCE})
    service.handle("analyze", {"source": SOURCE})
    service.payloads.clear()  # forced eviction shows up in stats
    snap = service.metrics_payload()
    assert snap["requests"]["analyze"] == 2
    assert snap["tier_hits"]["cold"] == 1
    assert snap["tier_hits"]["solution"] == 1
    assert snap["queue_depth"] == 0
    assert snap["latency_p50_seconds"] is not None
    assert snap["latency_p95_seconds"] >= snap["latency_p50_seconds"]
    caches = snap["caches"]
    assert set(caches) == {"solution"}
    assert caches["solution"]["evictions"] >= 1
    for stats in caches.values():
        assert set(stats) == {"entries", "bytes", "hits", "misses",
                              "evictions"}


def test_serve_telemetry_records(tmp_path):
    """Completion snapshots land as kind="serve" JSON lines."""
    from repro.telemetry import read_jsonl

    path = tmp_path / "serve.jsonl"
    svc = AnalysisService(ServeConfig(
        workers=2, cache=str(tmp_path / "cache"),
        telemetry=str(path), telemetry_every=1))
    try:
        svc.handle("analyze", {"source": SOURCE})
        svc.handle("analyze", {"source": SOURCE})
    finally:
        svc.shutdown()
    records = read_jsonl(path)
    assert len(records) >= 2
    for record in records:
        assert record["kind"] == "serve"
        assert record["schema"] == 1
        assert "tier_hits" in record and "queue_depth" in record
        assert "latency_p50_seconds" in record
    final = records[-1]
    assert final["requests"]["analyze"] == 2
    assert final["tier_hits"]["solution"] == 1
