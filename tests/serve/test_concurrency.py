"""Concurrency correctness: the daemon under simultaneous load.

N concurrent ``analyze``/``check`` requests — same program, different
programs, with caches evicted mid-flight, with a worker killed by
fault injection — must return digests byte-identical to serial CLI
runs.  Concurrency and caching may only ever change *latency*.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.serve import AnalysisService, ServeConfig

import repro


def _variant(tag: int) -> str:
    """A family of small distinct programs (distinct content hashes)."""
    return f"""
int g{tag};
int other{tag};
int *leaf(int pick) {{ return pick ? &g{tag} : &other{tag}; }}
int main(void) {{ int *p = leaf({tag % 2}); *p = {tag}; return 0; }}
"""


def _cli_digests(source):
    program = repro.parse_source(source, name="<conc-test>")
    ci = repro.analyze_insensitive(program)
    cs = repro.analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def _served_digests(payload):
    return {flavor: entry["digest"]
            for flavor, entry in payload["flavors"].items()}


def _fire(service, bodies, endpoint="analyze"):
    """Launch all requests as simultaneously as threads allow."""
    barrier = threading.Barrier(len(bodies))

    def one(body):
        barrier.wait()
        return service.handle(endpoint, body)

    with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
        return list(pool.map(one, bodies))


def test_concurrent_same_program_coalesces_and_matches(tmp_path):
    source = _variant(0)
    want = _cli_digests(source)
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        replies = _fire(svc, [{"source": source}] * 6)
        assert all(status == 200 for status, _ in replies)
        for _, payload in replies:
            assert _served_digests(payload) == want
        # Exactly one computation happened; everyone else either
        # coalesced onto it or hit the solution tier it populated.
        snap = svc.metrics_payload()
        computed = snap["tier_hits"]["cold"] + \
            snap["tier_hits"]["summary"] + snap["tier_hits"]["lowering"]
        assert computed == 1
        assert snap["coalesced"] + snap["tier_hits"]["solution"] == 5
    finally:
        svc.shutdown()


def test_concurrent_different_programs_match_serial(tmp_path):
    sources = [_variant(tag) for tag in range(5)]
    want = {src: _cli_digests(src) for src in sources}
    svc = AnalysisService(ServeConfig(workers=4, cache=str(tmp_path)))
    try:
        replies = _fire(svc, [{"source": src} for src in sources])
        assert all(status == 200 for status, _ in replies)
        for src, (_, payload) in zip(sources, replies):
            assert _served_digests(payload) == want[src]
    finally:
        svc.shutdown()


def test_eviction_mid_flight_never_changes_digests(tmp_path):
    """A hostile janitor clearing every in-memory tier while requests
    are in flight can only cause extra work, never different bytes."""
    sources = [_variant(tag) for tag in range(4)]
    want = {src: _cli_digests(src) for src in sources}
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        stop = threading.Event()

        def janitor():
            while not stop.is_set():
                svc.payloads.clear()
                svc.programs.clear()
                svc.results.clear()
                stop.wait(0.005)

        thread = threading.Thread(target=janitor)
        thread.start()
        try:
            bodies = [{"source": src} for src in sources] * 3
            replies = _fire(svc, bodies)
        finally:
            stop.set()
            thread.join()
        assert all(status == 200 for status, _ in replies)
        for body, (_, payload) in zip(bodies, replies):
            assert _served_digests(payload) == want[body["source"]]
        assert svc.payloads.evictions > 0
    finally:
        svc.shutdown()


def test_killed_worker_fails_one_request_not_the_daemon(tmp_path,
                                                       monkeypatch):
    """A worker hard-killed mid-request (fault injection = what an OOM
    kill looks like) must yield one structured 500; concurrent and
    subsequent requests still return CLI-identical digests."""
    good = _variant(7)
    want = _cli_digests(good)
    # Suite-program names are the fault-injection handle.
    monkeypatch.setenv("REPRO_FAULT_INJECT", "anagram=exit")
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        replies = _fire(svc, [{"program": "anagram"}, {"source": good}])
        statuses = sorted(status for status, _ in replies)
        assert statuses == [200, 500]
        for status, payload in replies:
            if status == 200:
                assert _served_digests(payload) == want
            else:
                assert payload["error_kind"] == "WorkerDied"
        assert svc.pool.worker_deaths >= 1
        # The rebuilt pool serves the next cold request correctly.
        fresh = _variant(8)
        status, payload = svc.handle("analyze", {"source": fresh})
        assert status == 200
        assert _served_digests(payload) == _cli_digests(fresh)
        assert svc.metrics_payload()["worker_deaths"] >= 1
    finally:
        svc.shutdown()


def test_concurrent_queries_with_different_filters(tmp_path):
    """Queries for the same program but different function/line
    filters may share the solved result, never each other's filtered
    responses — a follower coalescing onto a leader with a different
    filter must not inherit the leader's operations."""
    source = """
int g; int h;
int *from_g(void) { return &g; }
int *from_h(void) { return &h; }
int main(void) {
    int *p = from_g(); int *q = from_h();
    *p = 1; *q = 2; return 0;
}
"""
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        bodies = [{"source": source, "function": "main"},
                  {"source": source},
                  {"source": source, "function": "no_such_function"}] * 3
        replies = _fire(svc, bodies, endpoint="query")
        assert all(status == 200 for status, _ in replies)
        unfiltered = None
        for body, (_, payload) in zip(bodies, replies):
            wanted = body.get("function")
            ops = payload["operations"]
            if wanted == "no_such_function":
                assert ops == []
            elif wanted is None:
                assert ops, "unfiltered query sees main's derefs"
                if unfiltered is None:
                    unfiltered = ops
                assert ops == unfiltered
            else:
                assert ops, "main dereferences p and q"
                assert all(op["function"] == wanted for op in ops)
    finally:
        svc.shutdown()


def test_concurrent_checks_match_serial(tmp_path):
    from repro.runner import run_check_report

    names = ("anagram", "part")
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path)))
    try:
        bodies = [{"program": name, "flavors": ["insensitive"]}
                  for name in names] * 2
        replies = _fire(svc, bodies, endpoint="check")
        assert all(status == 200 for status, _ in replies)
        report = run_check_report(names=names, flavors=("insensitive",),
                                  cache=str(tmp_path), digest_only=True)
        want = {o.name: o.digests["insensitive"] for o in report.outcomes}
        for body, (_, payload) in zip(bodies, replies):
            assert payload["flavors"]["insensitive"]["digest"] == \
                want[body["program"]]
    finally:
        svc.shutdown()


def test_admission_sheds_with_429_under_pressure(tmp_path):
    """With the queue bound at 1, simultaneous arrivals shed; shed
    requests are refused outright (never half-answered) and a retry
    after the squeeze succeeds with correct bytes."""
    source = _variant(9)
    svc = AnalysisService(ServeConfig(workers=2, cache=str(tmp_path),
                                      queue_limit=1))
    try:
        barrier = threading.Barrier(4)
        outcomes = []
        lock = threading.Lock()

        def one():
            barrier.wait()
            if not svc.try_begin():
                with lock:
                    outcomes.append((429, None))
                return
            try:
                status, payload = svc.handle("analyze",
                                             {"source": source})
                with lock:
                    outcomes.append((status, payload))
            finally:
                svc.end()

        threads = [threading.Thread(target=one) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = sorted(status for status, _ in outcomes)
        assert statuses.count(429) == 3
        assert statuses.count(200) == 1
        assert svc.metrics_payload()["shed"] == 3
        # After the stampede: normal service, correct digests.
        assert svc.try_begin()
        try:
            status, payload = svc.handle("analyze", {"source": source})
        finally:
            svc.end()
        assert status == 200
        assert _served_digests(payload) == _cli_digests(source)
    finally:
        svc.shutdown()
