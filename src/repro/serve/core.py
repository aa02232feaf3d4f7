"""Transport-free service core for the analysis daemon.

:class:`AnalysisService` is everything ``repro serve`` does except
HTTP.  Every endpoint (``/analyze``, ``/check``, ``/query``,
``/slice``) runs one path: the body's JSON shape is checked here, it
becomes a ``payload_only`` :class:`repro.runner.Request`, and the
request runs in the fault-isolated :class:`~repro.runner.WorkerPool`,
whose worker ships back only the JSON payload.  Around that path sit
the payload LRU (the ``solution`` tier, keyed on the request with the
content hash as target, above the workers' summary-replay and
lowering-cache tiers), coalescing of duplicate in-flight requests onto
one computation, bounded admission that sheds excess load,
per-request budgets, and the metrics the daemon reports.  The daemon
process itself never lowers or solves a program.

The payload LRU holds each answer as the exact response body a hit
sends, encoded once when the worker's payload arrives.
:meth:`AnalysisService.lookup` keys a body (an inline ``source`` from
its UTF-8 bytes, in memory) and reads the LRU with no disk write, no
pool work and no thread, so the HTTP adapter (:mod:`repro.serve.http`)
answers a hit on its event loop; ``/query``'s ``function``/``line``
filters select from the one stored operation list and key nothing.
Only a miss takes admission, an executor thread and :meth:`handle`,
which spools inline source to disk and runs the pool.  The adapter
only parses requests and serializes responses; tests and benchmarks
drive the core directly, so everything load-bearing is exercised
without sockets.

A miss is handled synchronously and blocking by design — the asyncio
front end dispatches each admitted miss onto
:attr:`AnalysisService.executor` (a thread pool sized to the admission
limit, so an admitted request never queues behind a missing thread)
and the threads block on the persistent fault-isolated process pool.
Everything here is thread-safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

from ..errors import RequestError, SuiteError
from ..lru import LRUCache
from ..runner import (FLAVORS, Request, WorkerPool, content_key,
                      default_jobs)
from .payload import TIERS


@dataclass
class ServeConfig:
    """Daemon configuration (CLI flags land here verbatim)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Process-pool width.
    workers: Optional[int] = None
    #: Budget for the in-memory payload LRU, in MiB.
    max_memory_mb: int = 512
    #: Admission bound: in-flight + queued requests beyond this are
    #: shed with HTTP 429 instead of piling up unboundedly.
    queue_limit: int = 32
    #: Per-request wall-clock budget (enforced by the HTTP adapter;
    #: the computation continues and still warms the caches).
    timeout_seconds: float = 300.0
    #: Per-request worker address-space budget in MiB (0 = off);
    #: applied via ``REPRO_RLIMIT_MB`` in the pool workers.
    request_memory_mb: int = 0
    schedule: str = "batched"
    #: Lowering/summary cache selector (``True`` → default dir).
    cache: object = True
    #: JSON-lines path for ``kind="serve"`` telemetry (None = off).
    telemetry: Optional[str] = None
    #: Write a telemetry snapshot every N completed requests.
    telemetry_every: int = 25


class Metrics:
    """Thread-safe service counters behind ``/metrics`` and the
    ``kind="serve"`` telemetry records."""

    #: Bounded latency sample for the percentile estimates — enough
    #: resolution for p95 without unbounded daemon growth.
    LATENCY_WINDOW = 1024

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.tier_hits: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.coalesced = 0
        self.shed = 0
        self.timeouts = 0
        #: Executor threads still busy on work whose request already
        #: timed out (504).  They hold real capacity, so admission
        #: counts them until the computation finishes.
        self.zombies = 0
        self.errors = 0
        self.summary_evictions = 0
        self.active = 0
        self.peak_active = 0
        self._latencies = deque(maxlen=self.LATENCY_WINDOW)

    def end(self) -> None:
        with self._lock:
            self.active -= 1

    def observe(self, endpoint: str, tier: Optional[str],
                seconds: float) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
            if tier is not None:
                self.tier_hits[tier] = self.tier_hits.get(tier, 0) + 1
            self._latencies.append(seconds)

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self, caches: Optional[Dict[str, LRUCache]] = None,
                 worker_deaths: int = 0) -> Dict[str, object]:
        from ..telemetry import percentile

        with self._lock:
            sample = list(self._latencies)
            snap: Dict[str, object] = {
                "queue_depth": self.active,
                "peak_queue_depth": self.peak_active,
                "requests": dict(self.requests),
                "tier_hits": dict(self.tier_hits),
                "coalesced": self.coalesced,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "zombie_threads": self.zombies,
                "errors": self.errors,
                "summary_evictions": self.summary_evictions,
                "worker_deaths": worker_deaths,
            }
        snap["latency_p50_seconds"] = _rounded(percentile(sample, 0.50))
        snap["latency_p95_seconds"] = _rounded(percentile(sample, 0.95))
        if caches:
            snap["caches"] = {name: cache.stats()
                              for name, cache in caches.items()}
        return snap


def _rounded(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 6)


# -- request bodies -> Request fields, after checking their JSON shape ----


def _flavors(body: dict) -> Tuple[str, ...]:
    raw = body.get("flavors")
    if raw is None:
        return FLAVORS
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        raise RequestError("'flavors' must be a list of flavor names")
    return tuple(raw)


def _analyze_fields(body: dict) -> dict:
    return {"flavors": _flavors(body)}


def _check_fields(body: dict) -> dict:
    checkers = body.get("checkers")
    if checkers is not None and (
            not isinstance(checkers, list)
            or not all(isinstance(c, str) for c in checkers)):
        raise RequestError(
            "'checkers' must be a list of checker-id strings")
    return {"flavors": _flavors(body), "checkers": checkers}


def _query_fields(body: dict) -> dict:
    function = body.get("function")
    if function is not None and not isinstance(function, str):
        raise RequestError("'function' must be a string")
    line = body.get("line")
    if line is not None and (isinstance(line, bool)
                             or not isinstance(line, (int, str))):
        raise RequestError("'line' must be an integer or a string")
    return {"flavors": (body.get("flavor", "insensitive"),)}


def _filtered(body: dict) -> bool:
    """Whether a ``/query`` body selects by ``function`` or ``line``."""
    return body.get("function") is not None or body.get("line") is not None


def _query_view(payload: dict, body: dict) -> dict:
    """``/query``'s answer: the program's indirect operations, only
    those of ``function`` and lowered from ``line`` when given.  The
    filters select from the one cached list, so a new filter over a
    program already queried needs no pool work."""
    if not _filtered(body):
        return payload
    function = body.get("function")
    line = body.get("line")
    line = None if line is None else str(line)
    return dict(payload, operations=[
        op for op in payload["operations"]
        if (function is None or op["function"] == function)
        and (line is None or op["origin"].rsplit(":", 1)[-1] == line)])


def _slice_fields(body: dict) -> dict:
    for field_name in ("criterion", "finding"):
        value = body.get(field_name)
        if value is not None and (not isinstance(value, str)
                                  or not value):
            raise RequestError(
                f"{field_name!r} must be a non-empty string")
    return {"flavors": (body.get("flavor", "insensitive"),),
            "criterion": body.get("criterion"),
            "finding": body.get("finding"),
            "direction": body.get("direction", "backward")}


#: Endpoint → its body's :class:`Request` fields (beyond the target and
#: schedule).
_FIELDS = {"analyze": _analyze_fields, "check": _check_fields,
           "query": _query_fields, "slice": _slice_fields}


def response_body(payload: dict) -> bytes:
    """The HTTP response body for ``payload``: the one encoding of
    every answer, stored or not."""
    return json.dumps(payload, sort_keys=True).encode()


class Lookup(NamedTuple):
    """One request body keyed against the payload LRU (see
    :meth:`AnalysisService.lookup`)."""

    #: The request a miss runs.
    request: Request
    #: Its payload-LRU and coalescing key: the request with its target
    #: replaced by the content hash.
    key: Request
    #: An inline ``source``'s UTF-8 bytes, which a miss spools to the
    #: request's one target path; ``None`` for other targets.
    source: Optional[bytes]
    #: A hit's response body, byte for byte what the transport sends;
    #: ``None`` on a miss.
    answer: Optional[bytes]


class _InFlight:
    """One leader's computation that followers wait on."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: Optional[Tuple[int, dict]] = None


class AnalysisService:
    """The daemon's brain: caches, coalescing, admission, budgets."""

    def __init__(self, config: ServeConfig) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self.config = config
        self.metrics = Metrics()
        if config.request_memory_mb > 0:
            # Inherited by pool workers at spawn (the pool is created
            # lazily, on the first cold request).
            os.environ["REPRO_RLIMIT_MB"] = str(config.request_memory_mb)
        self.pool = WorkerPool(max_workers=config.workers or default_jobs())
        self.executor = ThreadPoolExecutor(
            max_workers=max(2, config.queue_limit),
            thread_name_prefix="repro-serve")
        self.payloads = LRUCache(
            max_bytes=max(1, config.max_memory_mb) * 1024 * 1024,
            sizeof=len, name="solution")
        self._inflight: Dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        # Inline source spools to ``serve-src`` under the cache
        # directory, or with the cache off to a directory of the
        # service's own, made now (keying a body never writes to disk)
        # and removed at shutdown.
        from ..frontend.cache import resolve_cache_dir
        root = resolve_cache_dir(config.cache)
        self._spool_tmp = None
        if root is None:
            import tempfile
            self._spool_tmp = tempfile.TemporaryDirectory(
                prefix="repro-serve-src-")
            root = Path(self._spool_tmp.name)
        self._spool_dir = root / "serve-src"
        self._spool_lock = threading.Lock()
        self._telemetry = None
        self._telemetry_lock = threading.Lock()
        self._completed = 0
        if config.telemetry:
            from ..telemetry import TelemetryWriter
            self._telemetry = TelemetryWriter(config.telemetry)

    # -- admission ----------------------------------------------------

    def try_begin(self) -> bool:
        """Admit one request, or refuse (→ 429) at the queue bound.

        Called by the transport *before* dispatching to the executor,
        so shedding is immediate — an overloaded daemon answers 429 in
        microseconds rather than parking the request on a thread.
        Zombie threads (still computing for requests that already got
        their 504) count against the limit: they occupy executor
        threads, and admitting past them would queue the new request
        behind work nobody is waiting for."""
        with self.metrics._lock:
            occupied = self.metrics.active + self.metrics.zombies
            if occupied >= self.config.queue_limit:
                self.metrics.shed += 1
                return False
            self.metrics.active += 1
            self.metrics.peak_active = max(self.metrics.peak_active,
                                           self.metrics.active)
            return True

    def end(self) -> None:
        self.metrics.end()

    def note_timeout(self, future) -> None:
        """Record a 504 whose computation is still on a thread.

        The admission slot is about to be released (the transport's
        ``finally`` calls :meth:`end`), but the executor thread stays
        busy until ``future`` resolves — so it is re-counted as a
        zombie until then, keeping ``try_begin``'s invariant that an
        admitted request never queues behind a missing thread."""
        self.metrics.count("timeouts")
        self.metrics.count("zombies")
        future.add_done_callback(
            lambda _f: self.metrics.count("zombies", -1))

    # -- the payload LRU (any thread; the transport's event loop) -----

    def lookup(self, endpoint: str, body: dict) -> Optional[Lookup]:
        """Key ``body`` and read the payload LRU: one counted lookup,
        with no disk write, no pool work and no thread.

        A hit carries the response body to send and is counted as an
        answered request here; a miss carries the request and key
        :meth:`handle` computes.  A body that cannot be keyed gives
        ``None``: :meth:`handle` answers it, so its error counts once.
        """
        start = time.perf_counter()
        if endpoint not in _FIELDS:
            return None
        try:
            found = self._lookup(endpoint, body)
        except Exception:  # noqa: BLE001 - handle() answers it
            return None
        if found.answer is not None:
            self._answered(endpoint, "solution", start)
        return found

    def _lookup(self, endpoint: str, body: dict) -> Lookup:
        target, content_key, source = self._target(body)
        request = self._request(endpoint, target, body,
                                **_FIELDS[endpoint](body))
        key = request._replace(target=content_key)
        answer = self.payloads.get(key)
        if answer is not None and endpoint == "query" and _filtered(body):
            answer = response_body(_query_view(json.loads(answer), body))
        return Lookup(request, key, source, answer)

    # -- request handling (blocking; runs on executor threads) --------

    def handle(self, endpoint: str, body: dict,
               found: Optional[Lookup] = None) -> Tuple[int, dict]:
        """One request → ``(http_status, response_payload)``.

        ``found`` is the transport's :meth:`lookup` miss for this body,
        so the request is keyed and looked up once; without it the
        body is looked up here, and a hit answers the stored body,
        decoded.  Every answer but a 200 counts in ``errors`` and
        nothing else: not in ``requests``, the tier hits or the
        latency sample, whether the daemon or the worker found the
        fault."""
        start = time.perf_counter()
        if endpoint not in _FIELDS:
            self.metrics.count("errors")
            return 404, {"error": f"unknown endpoint {endpoint!r}"}
        try:
            if found is None:
                found = self._lookup(endpoint, body)
            if found.answer is not None:
                status, payload = 200, json.loads(found.answer)
            else:
                status, payload = self._computed(found)
                if endpoint == "query" and status == 200:
                    payload = _query_view(payload, body)
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if status != 200:
            self.metrics.count("errors")
            return status, payload
        # Followers of a coalesced computation don't re-count its tier
        # — six riders on one cold solve is one cold solve.
        tier = None if payload.get("coalesced") else payload.get("tier")
        self._answered(endpoint, tier, start)
        return status, payload

    def metrics_payload(self) -> Dict[str, object]:
        return self.metrics.snapshot(
            caches={"solution": self.payloads},
            worker_deaths=self.pool.worker_deaths)

    def _answered(self, endpoint: str, tier: Optional[str],
                  start: float) -> None:
        self.metrics.observe(endpoint, tier, time.perf_counter() - start)
        self._maybe_snapshot()

    def _computed(self, found: Lookup) -> Tuple[int, dict]:
        """A payload-LRU miss through the pool.

        The worker ships back only the JSON payload, which answers
        with the worker's tier and is stored as the body a hit sends.
        A request error raised in the worker (a slice criterion or
        finding that matches nothing) answers 400; any other failure,
        lowering and solving included, answers 500.
        """
        request = found.request

        def compute() -> Tuple[int, dict]:
            if found.source is not None:
                self._spool(Path(request.target[0]), found.source)
            outcome = self.pool.run(request)
            error = outcome.error
            if error is not None:
                if error.kind == "RequestError":
                    return 400, {"error": error.message}
                return 500, {"error": error.message,
                             "error_kind": error.kind,
                             "program": request.name}
            payload = outcome.payload
            self._note_summary_evictions(payload)
            self.payloads.put(found.key,
                              response_body(dict(payload, tier="solution")))
            return 200, payload

        return self._coalesced(found.key, compute)

    # -- plumbing -----------------------------------------------------

    def _coalesced(self, key: tuple, compute) -> Tuple[int, dict]:
        """Run ``compute`` once per key across concurrent callers.

        The first caller becomes the leader; duplicates arriving while
        it runs block on its event and share the response verbatim —
        N identical cold requests cost one solve, not N."""
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _InFlight()
                self._inflight[key] = entry
                leader = True
            else:
                leader = False
        if not leader:
            entry.done.wait()
            self.metrics.count("coalesced")
            status, payload = entry.response
            if status == 200:
                payload = dict(payload, coalesced=True)
            return status, payload
        try:
            entry.response = compute()
        except Exception:
            entry.response = (500, {"error": "internal error"})
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            entry.done.set()
        return entry.response

    def _request(self, kind: str, target, body: dict,
                 **fields) -> Request:
        """A validated ``payload_only`` request at the daemon's cache
        setting, replaying summaries; ``schedule`` defaults to the
        daemon's."""
        return Request.build(
            kind, target, schedule=body.get("schedule",
                                             self.config.schedule),
            cache=self.config.cache, incremental=True, payload_only=True,
            **fields)

    def _target(self, body: dict
                ) -> Tuple[object, str, Optional[bytes]]:
        """The request target (a suite name or a one-path tuple), its
        content hash (the warm-identity handle every key uses), and an
        inline ``source``'s UTF-8 bytes."""
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        given = [k for k in ("program", "file", "source") if k in body]
        if len(given) != 1:
            raise RequestError(
                "provide exactly one of 'program' (suite name), "
                "'file' (path on the server), or 'source' (C text)")
        kind = given[0]
        value = body[kind]
        if not isinstance(value, str) or not value:
            raise RequestError(f"{kind!r} must be a non-empty string")
        if kind == "program":
            try:
                return value, content_key(value), None
            except SuiteError as exc:
                raise RequestError(str(exc)) from None
        if kind == "file":
            path = Path(value)
            if not path.is_file():
                raise RequestError(f"no such file: {value}")
            target = (str(path),)
            return target, content_key(target), None
        # Source text is keyed from its bytes in memory.  A miss spools
        # those bytes to this content-named file, so lower_file's
        # content-hash cache applies exactly as it does for real files
        # — the same text served twice is one lowering, ever — and the
        # key is the one content_key computes over the spooled file.
        from ..frontend.cache import compute_key
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError:
            raise RequestError("'source' must be text that encodes as "
                               "UTF-8") from None
        name = hashlib.sha256(data).hexdigest()[:32]
        path = str(self._spool_dir / f"{name}.c")
        return (path,), compute_key([(path, data)]), data

    def _spool(self, path: Path, data: bytes) -> None:
        # One lock covers the write-then-rename: concurrent threads
        # spooling the same text must not race on the tmp file (same
        # pid → same tmp name).  Spooling is tiny relative to a solve,
        # so the serialization is invisible.
        with self._spool_lock:
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                tmp.write_bytes(data)
                os.replace(tmp, path)

    def _note_summary_evictions(self, payload: dict) -> None:
        evicted = max((entry.get("dense", {}).get("summary_evictions", 0)
                       for entry in payload.get("flavors", {}).values()),
                      default=0)
        if evicted:
            self.metrics.count("summary_evictions", evicted)

    def _maybe_snapshot(self) -> None:
        if self._telemetry is None:
            return
        with self._telemetry_lock:
            self._completed += 1
            if self._completed % max(1, self.config.telemetry_every):
                return
        self.write_snapshot()

    def write_snapshot(self) -> None:
        """Append one ``kind="serve"`` telemetry record now."""
        if self._telemetry is None:
            return
        from ..telemetry import serve_record
        with self._telemetry_lock:
            self._telemetry.write(serve_record(self.metrics_payload()))

    def shutdown(self) -> None:
        if self._telemetry is not None:
            self.write_snapshot()
            self._telemetry.close()
            self._telemetry = None
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.pool.shutdown()
        if self._spool_tmp is not None:
            self._spool_tmp.cleanup()
