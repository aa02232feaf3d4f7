"""Transport-free service core for the analysis daemon.

:class:`AnalysisService` is everything ``repro serve`` does except
HTTP: request keying by the existing content hashes, a three-tier
warm path (parent-side solution payloads → worker-side SCC-summary
replay → worker-side lowering cache), coalescing of duplicate
in-flight requests onto one computation, bounded admission that sheds
excess load, per-request budgets, and the metrics the daemon reports.
The HTTP adapter (:mod:`repro.serve.http`) only parses requests and
serializes responses; tests and benchmarks drive the core directly,
so everything load-bearing is exercised without sockets.

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
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError, RequestError, SuiteError
from ..lru import LRUCache
from ..runner import (FLAVORS, Request, WorkerPool, _analyze_program,
                      default_jobs, load, slice_of, slice_payload)
from .payload import TIERS


@dataclass
class ServeConfig:
    """Daemon configuration (CLI flags land here verbatim)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Process-pool width for cold solves.
    workers: Optional[int] = None
    #: Combined budget for the in-memory LRU tiers, in MiB.
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
    flavors: Tuple[str, ...] = FLAVORS
    #: Lowering/summary cache selector (``True`` → default dir).
    cache: object = True
    #: Route solves through the incremental engine so warm requests
    #: replay persisted SCC summaries instead of re-solving.
    incremental: bool = True
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

    def begin(self) -> None:
        with self._lock:
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)

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


def _pickled_size(value: object) -> int:
    """Byte estimate for object-tier LRU accounting; pickle is the
    honest measure of what the object transitively holds (these
    objects already cross process pipes, so they are picklable)."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 1 << 20  # charge un-picklables a conservative 1 MiB


def _json_size(value: object) -> int:
    try:
        return len(json.dumps(value))
    except (TypeError, ValueError):
        return 1 << 20


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
        budget = max(1, config.max_memory_mb) * 1024 * 1024
        # Tier budgets: payloads are small and the hottest (a hit skips
        # the pool entirely), so they get half the budget; the two
        # object tiers backing in-process /query split the rest.
        self.payloads = LRUCache(max_bytes=budget // 2,
                                 sizeof=_json_size, name="solution")
        self.programs = LRUCache(max_bytes=budget // 4,
                                 sizeof=_pickled_size, name="program")
        self.results = LRUCache(max_bytes=budget // 4,
                                sizeof=_pickled_size, name="result")
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
        """One admitted request → ``(http_status, response_payload)``."""
        start = time.perf_counter()
        try:
            if endpoint in ("analyze", "check"):
                status, payload = self._pooled(endpoint, body)
            elif endpoint == "query":
                status, payload = self._query(body)
            elif endpoint == "slice":
                status, payload = self._slice(body)
            else:
                return 404, {"error": f"unknown endpoint {endpoint!r}"}
        except RequestError as exc:
            self.metrics.count("errors")
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self.metrics.count("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        # Followers of a coalesced computation don't re-count its tier
        # — six riders on one cold solve is one cold solve.
        tier = None
        if status == 200 and not payload.get("coalesced"):
            tier = payload.get("tier")
        self.metrics.observe(endpoint, tier, elapsed)
        if status >= 500:
            self.metrics.count("errors")
        self._maybe_snapshot()
        return status, payload

    def metrics_payload(self) -> Dict[str, object]:
        return self.metrics.snapshot(
            caches={"solution": self.payloads,
                    "program": self.programs,
                    "result": self.results},
            worker_deaths=self.pool.worker_deaths)

    # -- endpoints ----------------------------------------------------

    def _pooled(self, kind: str, body: dict) -> Tuple[int, dict]:
        """``/analyze`` and ``/check``: one request through the pool.

        The worker ships back only the JSON payload.  The payload LRU
        and the coalescing map key on the request with its target
        replaced by the content hash, so a key names exactly what the
        worker runs.
        """
        target, content_key = self._target(body)
        fields = {}
        if kind == "check":
            checkers = body.get("checkers")
            if checkers is not None and (
                    not isinstance(checkers, list)
                    or not all(isinstance(c, str) for c in checkers)):
                raise RequestError(
                    "'checkers' must be a list of checker-id strings")
            fields["checkers"] = checkers
        request = self._request(kind, target, body,
                                flavors=self._flavors(body),
                                payload_only=True, **fields)
        key = request._replace(target=content_key)
        cached = self.payloads.get(key)
        if cached is not None:
            return 200, dict(cached, tier="solution")

        def compute() -> Tuple[int, dict]:
            outcome = self.pool.run(request)
            if outcome.error is not None:
                return 500, {"error": outcome.error.message,
                             "error_kind": outcome.error.kind,
                             "program": request.name}
            payload = outcome.payload
            self._note_summary_evictions(payload)
            self.payloads.put(key, payload)
            return 200, payload

        return self._coalesced(key, compute)

    def _query(self, body: dict) -> Tuple[int, dict]:
        """Location-set query over one program's solved result.

        Runs in-process (the answer needs the object-level solution,
        which never crosses the pool pipe) against the ``program`` /
        ``result`` LRU tiers; a doubly-cold query lowers and solves
        here, then both tiers are warm for the next one.
        """
        target, content_key = self._target(body)
        function = body.get("function")
        if function is not None and not isinstance(function, str):
            raise RequestError("'function' must be a string")
        line = body.get("line")
        if line is not None and (isinstance(line, bool)
                                 or not isinstance(line, (int, str))):
            raise RequestError("'line' must be an integer or a string")
        request = self._request("analyze", target, body,
                                flavors=(body.get("flavor",
                                                  "insensitive"),))
        # The solved result is filter-independent, so the LRU tiers key
        # on the solve alone — but the *response* is shaped by the
        # function/line filters, so coalescing must key on them too or
        # a follower would inherit the leader's filtered operations.
        key = ("query", request._replace(target=content_key), function,
               line)

        def compute() -> Tuple[int, dict]:
            result, tier = self._solved_result(request, content_key)
            operations: List[dict] = []
            for name, graph in sorted(result.program.functions.items()):
                if function is not None and name != function:
                    continue
                for node in graph.memory_operations():
                    if not node.is_indirect:
                        continue
                    origin = node.origin or ""
                    if line is not None:
                        if origin.rsplit(":", 1)[-1] != str(line):
                            continue
                    locations = sorted(
                        repr(p) for p in result.op_locations(node))
                    operations.append({"function": name,
                                       "kind": node.kind,
                                       "origin": origin,
                                       "locations": locations})
            return 200, {"program": request.name,
                         "flavor": request.flavors[0],
                         "schedule": request.schedule, "tier": tier,
                         "operations": operations}

        return self._coalesced(key, compute)

    def _slice(self, body: dict) -> Tuple[int, dict]:
        """Dependence-graph slice over one program's solved result.

        In-process like ``/query`` — the graph walk needs the
        object-level solution — and ``file:line`` slices share
        ``/query``'s solved-result LRU tier exactly, so a warm query
        makes the next slice a solution-tier hit and vice versa.
        Finding-keyed slices solve under the hazard-model lowering
        (the model findings are reported against) in a sibling tier
        entry.  The payload is the one ``repro slice`` prints.
        """
        target, content_key = self._target(body)
        for field_name in ("criterion", "finding"):
            value = body.get(field_name)
            if value is not None and (not isinstance(value, str)
                                      or not value):
                raise RequestError(
                    f"{field_name!r} must be a non-empty string")
        request = self._request(
            "slice", target, body,
            flavors=(body.get("flavor", "insensitive"),),
            criterion=body.get("criterion"), finding=body.get("finding"),
            direction=body.get("direction", "backward"))
        key = request._replace(target=content_key)

        def compute() -> Tuple[int, dict]:
            result, tier = self._solved_result(request, content_key)
            try:
                graph, sliced = slice_of(request, result)
            except AnalysisError as exc:
                # A criterion matching nothing is the client's mistake.
                return 400, {"error": str(exc)}
            return 200, slice_payload(request, graph, sliced, tier=tier)

        return self._coalesced(key, compute)

    # -- plumbing -----------------------------------------------------

    def _solved_result(self, request: Request, content_key: str):
        """``(result, tier)`` for the request's one flavor, through the
        program/result LRU tiers.

        The warm path ``/query`` and ``/slice`` share: solved results
        key on what the solve depends on — the lowering (plain or
        hazard model), the content, the flavor and the schedule — and
        never on the response shape; lowered programs key on the
        lowering and the content.
        """
        lowering = (request.hazard_model, content_key)
        result_key = ("result", *lowering, request.flavors,
                      request.schedule)
        result = self.results.get(result_key)
        if result is not None:
            return result, "solution"
        program = self.programs.get(("program", *lowering))
        tier = "lowering"
        if program is None:
            program = load(request)
            if program.extras.get("cache") != "hit":
                tier = "cold"
            self.programs.put(("program", *lowering), program)
        (flavor,) = request.flavors
        result = _analyze_program(
            program, request.flavors, request.schedule,
            request.incremental, request.cache)[flavor]
        self.results.put(result_key, result)
        return result, tier

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
        """A validated request at the daemon's cache and incremental
        settings; ``schedule`` defaults to the daemon's."""
        return Request.build(
            kind, target, schedule=body.get("schedule",
                                             self.config.schedule),
            cache=self.config.cache, incremental=self.config.incremental,
            **fields)

    def _flavors(self, body: dict) -> Tuple[str, ...]:
        raw = body.get("flavors")
        if raw is None:
            return tuple(self.config.flavors)
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list):
            raise RequestError("'flavors' must be a list of flavor names")
        return tuple(raw)

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
        from ..frontend.cache import key_for_files
        if kind == "program":
            from ..suite.registry import program_path
            try:
                path = program_path(value)
            except SuiteError as exc:
                raise RequestError(str(exc)) from None
            return value, key_for_files([path])
        if kind == "file":
            path = Path(value)
            if not path.is_file():
                raise RequestError(f"no such file: {value}")
        else:
            # Source text: spool to a content-named file so lower_file's
            # content-hash cache applies exactly as it does for real
            # files — the same text served twice is one lowering, ever.
            path = self._spool_source(value)
        return (str(path),), key_for_files([path])

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
