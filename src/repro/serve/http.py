"""Stdlib asyncio HTTP/1.1 adapter for the analysis service.

A deliberately small server — request line, headers, Content-Length
body, JSON in / JSON out, keep-alive — because the daemon's API is
five routes and its clients are benchmarks, CI smoke, and curl:

* ``POST /analyze`` — solve a program, return per-flavor digests,
  pair census, counters, and the cache ``tier`` that satisfied it.
* ``POST /check`` — run the bug-finding checkers, return per-flavor
  finding digests and counts (findings stay worker-side).
* ``POST /query`` — location sets for indirect memory operations.
* ``POST /slice`` — dependence-graph slices from a ``file:line``
  criterion or a checker finding key.
* ``GET /metrics`` — service counters (queue depth, tier hits,
  coalesced/shed counts, latency percentiles, payload-LRU stats).

Every ``POST`` runs the same way: the service core builds a request,
a pool worker runs it, and the payload LRU keeps the answer.

Flow control lives in the service core: the adapter checks admission
*before* dispatching to the executor (shed requests get their 429 in
microseconds), applies the per-request timeout around the executor
future, and maps malformed inputs to 400/404/405/413.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from .core import AnalysisService, ServeConfig

#: Reject request bodies beyond this many bytes (HTTP 413).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Maximum bytes for the request line + headers block.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 504: "Gateway Timeout"}

_POST_ROUTES = ("analyze", "check", "query", "slice")


def _response_bytes(status: int, payload: dict,
                    keep_alive: bool) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n")
    return head.encode() + body


async def _read_head(reader: asyncio.StreamReader) -> Optional[bytes]:
    try:
        return await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None  # client closed between requests — normal
    except asyncio.LimitOverrunError:
        return b""   # head too large — report 413


def _parse_head(head: bytes):
    """(method, path, headers, keep_alive) or None for garbage."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 total
        return None
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        return None
    method, path, version = parts
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    connection = headers.get("connection", "").lower()
    keep_alive = (version == "HTTP/1.1" and connection != "close") \
        or connection == "keep-alive"
    return method, path, headers, keep_alive


async def _handle_connection(service: AnalysisService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            head = await _read_head(reader)
            if head is None:
                break
            if not head:
                writer.write(_response_bytes(
                    413, {"error": "request head too large"}, False))
                break
            parsed = _parse_head(head)
            if parsed is None:
                writer.write(_response_bytes(
                    400, {"error": "malformed request"}, False))
                break
            method, path, headers, keep_alive = parsed
            status, payload = await _route(service, loop, reader,
                                           method, path, headers)
            writer.write(_response_bytes(status, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError,
            asyncio.IncompleteReadError):
        # IncompleteReadError: client hung up mid-body — nothing left
        # to answer; treat like any other peer-initiated disconnect.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def _route(service: AnalysisService, loop,
                 reader: asyncio.StreamReader, method: str, path: str,
                 headers: dict) -> Tuple[int, dict]:
    endpoint = path.lstrip("/").split("?", 1)[0]
    if endpoint == "metrics":
        if method != "GET":
            return 405, {"error": "metrics is GET-only"}
        return 200, service.metrics_payload()
    if endpoint not in _POST_ROUTES:
        return 404, {"error": f"no such endpoint: /{endpoint}"}
    if method != "POST":
        return 405, {"error": f"/{endpoint} is POST-only"}
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        return 400, {"error": "bad Content-Length"}
    if length < 0:
        return 400, {"error": "bad Content-Length"}
    if length > MAX_BODY_BYTES:
        return 413, {"error": "request body too large"}
    body_bytes = await reader.readexactly(length) if length else b""
    try:
        body = json.loads(body_bytes or b"{}")
    except ValueError:
        return 400, {"error": "request body is not valid JSON"}
    if not isinstance(body, dict):
        return 400, {"error": "request body must be a JSON object"}
    if not service.try_begin():
        return 429, {"error": "service overloaded; retry later",
                     "queue_limit": service.config.queue_limit}
    try:
        future = loop.run_in_executor(service.executor, service.handle,
                                      endpoint, body)
        timeout = service.config.timeout_seconds or None
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            # The computation keeps running on its thread and will
            # still populate the caches — a retry after the budget
            # expires is typically a solution-tier hit.  note_timeout
            # keeps the busy thread counted against admission (as a
            # zombie) until the future actually resolves.
            service.note_timeout(future)
            return 504, {"error": "request exceeded the time budget",
                         "timeout_seconds": timeout}
    finally:
        service.end()


async def start_server(service: AnalysisService):
    """Bind and return the ``asyncio.Server`` (caller owns lifetime)."""

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, service.config.host, service.config.port,
        limit=MAX_HEAD_BYTES)


def run_server(config: ServeConfig, ready=None) -> int:
    """Run the daemon until interrupted; the ``repro serve`` entry.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once the socket is listening — the smoke harness and tests use it
    instead of parsing stdout.
    """
    service = AnalysisService(config)

    async def main() -> None:
        server = await start_server(service)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro-serve listening on http://{host}:{port} "
              f"(workers={service.pool.max_workers}, "
              f"queue_limit={config.queue_limit})", flush=True)
        if ready is not None:
            ready((host, port))
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0
