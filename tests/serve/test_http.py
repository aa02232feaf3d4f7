"""The asyncio HTTP adapter: routing, status codes, keep-alive.

One real daemon (random port, background thread) per module; requests
go through ``http.client`` so the bytes on the wire are exactly what
curl would send.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.serve import AnalysisService, ServeConfig
from repro.serve.http import run_server, start_server

SOURCE = """
int g;
int *leaf(void) { return &g; }
int main(void) { int *p = leaf(); *p = 1; return 0; }
"""


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """(host, port) of a live daemon bound to an ephemeral port."""
    cache = tmp_path_factory.mktemp("serve-http-cache")
    config = ServeConfig(port=0, workers=2, cache=str(cache),
                         queue_limit=8)
    addr = {}
    ready = threading.Event()

    def on_ready(hp):
        addr["hp"] = hp
        ready.set()

    thread = threading.Thread(target=run_server, args=(config,),
                              kwargs={"ready": on_ready}, daemon=True)
    thread.start()
    assert ready.wait(30), "daemon failed to start"
    yield addr["hp"]
    # Daemon thread dies with the test process; the sandboxed caches
    # are under tmp_path_factory and cleaned by pytest.


def _raw_request(daemon, method, path, body=None, headers=None):
    """``(status, raw response body)``; ``body`` is sent as given when
    it is ``bytes``, else JSON-encoded."""
    host, port = daemon
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _request(daemon, method, path, body=None, headers=None):
    status, raw = _raw_request(daemon, method, path, body, headers)
    return status, json.loads(raw)


def test_analyze_roundtrip_and_warm_hit(daemon):
    status, payload = _request(daemon, "POST", "/analyze",
                               {"source": SOURCE})
    assert status == 200
    assert set(payload["flavors"]) == {"insensitive", "sensitive",
                                       "flowinsensitive"}
    digest = payload["flavors"]["insensitive"]["digest"]
    status, warm = _request(daemon, "POST", "/analyze",
                            {"source": SOURCE})
    assert status == 200
    assert warm["tier"] == "solution"
    assert warm["flavors"]["insensitive"]["digest"] == digest


def test_metrics_endpoint(daemon):
    _request(daemon, "POST", "/analyze", {"source": SOURCE})
    status, payload = _request(daemon, "GET", "/metrics")
    assert status == 200
    assert payload["requests"]["analyze"] >= 1
    assert "tier_hits" in payload and "caches" in payload


def test_keep_alive_serves_multiple_requests(daemon):
    host, port = daemon
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        for _ in range(3):
            conn.request("POST", "/analyze",
                         body=json.dumps({"source": SOURCE}).encode())
            resp = conn.getresponse()
            assert resp.status == 200
            json.loads(resp.read())  # must drain to reuse the socket
    finally:
        conn.close()


def test_http_error_codes(daemon):
    status, _ = _request(daemon, "POST", "/no-such-route", {})
    assert status == 404
    status, _ = _request(daemon, "GET", "/analyze")
    assert status == 405
    status, _ = _request(daemon, "POST", "/metrics", {})
    assert status == 405
    status, payload = _request(daemon, "POST", "/analyze", None,
                               headers={"Content-Length": "0"})
    assert status == 400  # empty body: no target given
    host, port = daemon
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", "/analyze", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        assert "JSON" in json.loads(resp.read())["error"]
    finally:
        conn.close()


def test_oversized_body_is_413(daemon):
    host, port = daemon
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.putrequest("POST", "/analyze")
        conn.putheader("Content-Length", str(64 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 413
    finally:
        conn.close()


def test_negative_content_length_is_400(daemon):
    host, port = daemon
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.putrequest("POST", "/analyze", skip_host=False)
        conn.putheader("Content-Length", "-5")
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
    finally:
        conn.close()


def test_disconnect_mid_body_leaves_daemon_healthy(daemon):
    """A client that promises a body and hangs up mid-read must not
    kill the connection task with an unhandled exception; the daemon
    keeps serving."""
    import socket

    host, port = daemon
    sock = socket.create_connection((host, port), timeout=30)
    try:
        sock.sendall(b"POST /analyze HTTP/1.1\r\n"
                     b"Content-Length: 4096\r\n\r\n"
                     b"{\"truncated")
    finally:
        sock.close()  # mid-body EOF → IncompleteReadError server-side
    status, payload = _request(daemon, "POST", "/analyze",
                               {"source": SOURCE})
    assert status == 200
    assert payload["flavors"]["insensitive"]["digest"]


def test_bad_suite_program_is_400_over_http(daemon):
    status, payload = _request(daemon, "POST", "/analyze",
                               {"program": "definitely-not-a-program"})
    assert status == 400
    assert "unknown suite program" in payload["error"]


def test_query_over_http(daemon):
    status, payload = _request(daemon, "POST", "/query",
                               {"source": SOURCE, "function": "main"})
    assert status == 200
    assert payload["operations"]
    for op in payload["operations"]:
        assert op["function"] == "main"
        assert op["locations"]


def test_transport_client_errors_count_in_errors(daemon):
    """Every answer the adapter gives itself (bad JSON or a non-object
    body, a bad Content-Length, an unknown path, a wrong method, an
    oversized body, a malformed request line) counts in ``errors`` and
    nowhere else."""
    import socket

    host, port = daemon
    _, before = _request(daemon, "GET", "/metrics")
    sent = [_raw_request(daemon, "POST", "/analyze", b"{not json")[0],
            _raw_request(daemon, "POST", "/analyze", b"[1, 2]")[0],
            _raw_request(daemon, "POST", "/nope", {})[0],
            _raw_request(daemon, "GET", "/analyze")[0],
            _raw_request(daemon, "POST", "/metrics", {})[0]]
    for length in ("many", str(64 * 1024 * 1024)):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            sent.append(conn.getresponse().status)
        finally:
            conn.close()
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"NONSENSE\r\n\r\n")
        sent.append(int(sock.makefile("rb").readline().split()[1]))
    assert sent == [400, 400, 404, 405, 405, 400, 413, 400]
    _, after = _request(daemon, "GET", "/metrics")
    assert after["errors"] - before["errors"] == len(sent)
    for counter in ("requests", "tier_hits", "shed", "timeouts",
                    "coalesced"):
        assert after[counter] == before[counter], counter


def _unique(tag: str) -> str:
    """SOURCE under a comment of its own, so the first request for it
    misses the payload LRU."""
    return f"/* {tag} */\n{SOURCE}"


@pytest.mark.parametrize("endpoint,extra", [
    ("analyze", {}),
    ("check", {}),
    ("query", {}),
    ("query", {"function": "main"}),
    ("query", {"line": 5}),   # ``*p = 1``, under _unique's comment
    ("slice", {}),
])
def test_hit_body_is_the_first_answer_as_stored(daemon, endpoint, extra):
    """A repeated request's raw body is the first answer (a miss) with
    tier ``solution``, encoded as the adapter encodes every answer."""
    source = _unique(f"{endpoint} {sorted(extra)}")
    if endpoint == "slice":
        _, ops = _request(daemon, "POST", "/query", {"source": source})
        extra = {"criterion": ops["operations"][0]["origin"]}
    body = dict(extra, source=source)
    status, first = _request(daemon, "POST", f"/{endpoint}", body)
    assert status == 200
    assert first["tier"] != "solution"
    if endpoint == "query":
        assert first["operations"]
    status, raw = _raw_request(daemon, "POST", f"/{endpoint}", body)
    assert status == 200
    assert raw == json.dumps(dict(first, tier="solution"),
                             sort_keys=True).encode()


@pytest.fixture
def live(tmp_path):
    """``(service, (host, port))``: a daemon admitting one request at
    a time, whose service the test can reach."""
    service = AnalysisService(ServeConfig(port=0, workers=1,
                                          cache=str(tmp_path),
                                          queue_limit=1))
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(start_server(service))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        yield service, server.sockets[0].getsockname()[:2]
    finally:
        async def close():
            server.close()
            await server.wait_closed()
            # Connection handlers outlive the server; end them here so
            # none is left pending when the loop closes.
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        assert not thread.is_alive()
        loop.close()
        service.shutdown()


def test_hit_takes_no_handler_and_no_admission_slot(live, monkeypatch):
    """A hit is answered on the event loop: it runs no
    ``AnalysisService.handle`` and passes admission by, so it answers
    200 while the one slot is held, where a miss is shed."""
    service, addr = live
    body = {"source": SOURCE}
    status, first = _request(addr, "POST", "/analyze", body)
    assert status == 200
    calls = []
    monkeypatch.setattr(service, "handle",
                        lambda *args: calls.append(args))
    assert service.try_begin()  # the one admission slot, held
    try:
        shed = service.metrics_payload()["shed"]
        status, hit = _request(addr, "POST", "/analyze", body)
        assert status == 200
        assert hit == dict(first, tier="solution")
        assert service.metrics_payload()["shed"] == shed
        status, _ = _request(addr, "POST", "/check", body)
        assert status == 429
        assert service.metrics_payload()["shed"] == shed + 1
    finally:
        service.end()
    assert calls == []


def test_one_payload_lru_lookup_per_request(live):
    """Over HTTP too, hits and misses alike cost one counted lookup:
    ``caches.solution`` hits plus misses equal the requests sent."""
    service, addr = live
    sent = [("analyze", {}), ("analyze", {}), ("check", {}),
            ("query", {}), ("query", {"function": "main"}),
            ("query", {}), ("check", {})]
    for endpoint, extra in sent:
        status, _ = _request(addr, "POST", f"/{endpoint}",
                             dict(extra, source=SOURCE))
        assert status == 200
    stats = service.metrics_payload()["caches"]["solution"]
    assert (stats["hits"], stats["misses"]) == (4, 3)
