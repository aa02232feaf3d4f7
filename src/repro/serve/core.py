"""Transport-free service core for the analysis daemon.

:class:`AnalysisService` is everything ``repro serve`` does except
HTTP.  Every endpoint (``/analyze``, ``/check``, ``/query``,
``/slice``) runs one path: the body's JSON shape is checked here, it
becomes a ``payload_only`` :class:`repro.runner.Request`, and the
request runs in the fault-isolated :class:`~repro.runner.WorkerPool`,
whose worker ships back only the JSON payload.  Around that path sit
the payload LRU (the ``solution`` tier, keyed on the request with the
content hash as target, above the workers' summary-replay and
lowering-cache tiers; ``/query``'s ``function``/``line`` filters select
from one cached operation list and key nothing), coalescing of
duplicate in-flight requests onto one computation, bounded admission
that sheds excess load, per-request budgets, and the metrics the
daemon reports.  The daemon process itself never lowers or solves a
program.  The HTTP adapter (:mod:`repro.serve.http`) only parses
requests and serializes responses; tests and benchmarks drive the
core directly, so everything load-bearing is exercised without
sockets.

Request handling is synchronous and blocking by design — the asyncio
front end dispatches each admitted request onto
:attr:`AnalysisService.executor` (a thread pool sized to the admission
limit, so an admitted request never queues behind a missing thread)
and the threads block on the persistent fault-isolated process pool.
Everything here is thread-safe.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

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


def _json_size(value: object) -> int:
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return 1 << 20


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


def _query_view(payload: dict, body: dict) -> dict:
    """``/query``'s answer: the program's indirect operations, only
    those of ``function`` and lowered from ``line`` when given.  The
    filters select from the one cached list, so a new filter over a
    program already queried needs no pool work."""
    function = body.get("function")
    line = body.get("line")
    if function is None and line is None:
        return payload
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
            sizeof=_json_size, name="solution")
        self._inflight: Dict[tuple, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._spool_dir: Optional[Path] = None
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

    # -- request handling (blocking; runs on executor threads) --------

    def handle(self, endpoint: str, body: dict) -> Tuple[int, dict]:
        """One admitted request → ``(http_status, response_payload)``.

        Every answer but a 200 counts in ``errors`` and nothing else:
        not in ``requests``, the tier hits or the latency sample,
        whether the daemon or the worker found the fault."""
        start = time.perf_counter()
        if endpoint not in _FIELDS:
            self.metrics.count("errors")
            return 404, {"error": f"unknown endpoint {endpoint!r}"}
        try:
            status, payload = self._pooled(endpoint, body)
            if endpoint == "query" and status == 200:
                payload = _query_view(payload, body)
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if status != 200:
            self.metrics.count("errors")
            return status, payload
        elapsed = time.perf_counter() - start
        # Followers of a coalesced computation don't re-count its tier
        # — six riders on one cold solve is one cold solve.
        tier = None if payload.get("coalesced") else payload.get("tier")
        self.metrics.observe(endpoint, tier, elapsed)
        self._maybe_snapshot()
        return status, payload

    def metrics_payload(self) -> Dict[str, object]:
        return self.metrics.snapshot(
            caches={"solution": self.payloads},
            worker_deaths=self.pool.worker_deaths)

    # -- endpoints ----------------------------------------------------

    def _pooled(self, kind: str, body: dict) -> Tuple[int, dict]:
        """One endpoint's request through the pool.

        The worker ships back only the JSON payload.  The payload LRU
        and the coalescing map key on the request with its target
        replaced by the content hash, so a key names exactly what the
        worker runs.  A request error raised in the worker (a slice
        criterion or finding that matches nothing) answers 400; any
        other failure, lowering and solving included, answers 500.
        """
        target, content_key = self._target(body)
        request = self._request(kind, target, body,
                                **_FIELDS[kind](body))
        key = request._replace(target=content_key)
        cached = self.payloads.get(key)
        if cached is not None:
            return 200, dict(cached, tier="solution")

        def compute() -> Tuple[int, dict]:
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
            self.payloads.put(key, payload)
            return 200, payload

        return self._coalesced(key, compute)

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

    def _target(self, body: dict) -> Tuple[object, str]:
        """The request target (a suite name or a one-path tuple) and
        its content hash, the warm-identity handle every key uses."""
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
                return value, content_key(value)
            except SuiteError as exc:
                raise RequestError(str(exc)) from None
        if kind == "file":
            path = Path(value)
            if not path.is_file():
                raise RequestError(f"no such file: {value}")
        else:
            # Source text: spool to a content-named file so lower_file's
            # content-hash cache applies exactly as it does for real
            # files — the same text served twice is one lowering, ever.
            path = self._spool_source(value)
        target = (str(path),)
        return target, content_key(target)

    def _spool_source(self, source: str) -> Path:
        import hashlib
        # One lock covers setup and the write-then-rename: concurrent
        # threads spooling the same text must not race on the tmp file
        # (same pid → same tmp name).  Spooling is tiny relative to a
        # solve, so the serialization is invisible.
        with self._spool_lock:
            if self._spool_dir is None:
                from ..frontend.cache import resolve_cache_dir
                root = resolve_cache_dir(self.config.cache)
                if root is None:
                    import tempfile
                    self._spool_dir = Path(
                        tempfile.mkdtemp(prefix="repro-serve-src-"))
                else:
                    self._spool_dir = root / "serve-src"
                self._spool_dir.mkdir(parents=True, exist_ok=True)
            sha = hashlib.sha256(source.encode()).hexdigest()[:32]
            path = self._spool_dir / f"{sha}.c"
            if not path.exists():
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                tmp.write_text(source)
                os.replace(tmp, path)
        return path

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
