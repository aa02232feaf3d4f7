"""One request path, fault-isolated.

Every analysis the CLI, the suite sweeps and the serve daemon run is a
:class:`Request`: the kind (``analyze``, ``check``, ``query`` or
``slice``), the target, the flavors, the schedule, the cache and
incremental settings, and the kind's own fields.  :meth:`Request.build`
validates a request where it is made, so every caller rejects a bad
flavor, schedule, checker id or slice direction with the same
:class:`RequestError`.
:func:`execute` is the one function that runs a request: :func:`load`
lowers the target, :func:`_analyze_program` solves it, and the kind's
client turns the results into a :class:`TaskOutcome`.  :func:`run` is
the one sweep driver; the daemon's long-lived :class:`WorkerPool` runs
one request at a time.  Both hand every pool task to :func:`_guarded`.

The 13 suite programs (and independent user files) are embarrassingly
parallel: each worker lowers one program — through the persistent
lowering cache, so repeat sweeps skip the frontend entirely — and runs
the requested analyses.  Results ship back whole: each worker's return
value is pickled as one message, so a result's ``program``, solution
ports, and call-graph nodes arrive identity-consistent with each other
(and interned facts re-unify on load via their ``__reduce__`` hooks).

Fault isolation is the design center.  ``pool.map`` fails the *sweep*
when one task fails — the first raising worker aborts iteration and
discards every completed program, and a worker killed outright (OOM
reaper, segfault in a C extension, ``os._exit``) surfaces as a bare
``BrokenProcessPool`` with no hint which program died.  This driver
instead:

* submits one future per request and drains them as they complete;
* catches exceptions *inside* the worker, shipping back a structured
  :class:`TaskOutcome` (name, results-or-error, telemetry records), so
  an analysis failure on one program is just that task's outcome;
* on ``BrokenProcessPool`` — a hard worker death poisons every pending
  future in the pool, not just the culprit's — re-runs each unresolved
  request in its own fresh single-worker pool, so survivors complete
  and the request that kills its pool *again* is identified by name.

Every outcome carries telemetry records (see :mod:`repro.telemetry`):
one record per flavor, or one ``kind="error"`` record naming the
failed target, ready for ``--telemetry`` JSON-lines output.

``jobs=1`` (or a single request) runs inline in the calling process
with no executor, keeping the driver usable where fork is unavailable
and keeping tracebacks simple.  Inline runs honor ``fail_fast`` too:
``fail_fast=False`` (the default) converts per-request exceptions into
error outcomes; ``fail_fast=True`` lets the first one propagate.

For tests, the hook ``REPRO_FAULT_INJECT="<name>=exit"`` (or
``<name>=raise``) makes the worker for ``<name>`` die hard / raise —
an env var survives both fork and spawn, unlike a monkeypatch.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .choices import DIRECTIONS, SCHEDULES
from .cpus import available_cpus
from .errors import AnalysisError, ReproError, RequestError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .analysis.common import AnalysisResult
    from .analysis.depgraph import DependenceGraph

#: Analysis flavors the driver understands, in run order (CI first:
#: the CS pass reuses its result, the FI baseline is independent).
FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

#: Test hook: ``"<name>=exit"`` kills the worker processing ``<name>``
#: via ``os._exit(3)`` (simulating an OOM kill / segfault);
#: ``"<name>=raise"`` makes it raise.  Multiple directives separated
#: by commas.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Sweeps at or below this many requests run inline even when
#: ``jobs > 1``: forking an executor, importing the package in each
#: worker, and pickling results back costs more wall-clock than
#: analyzing a handful of programs does, which made tiny parallel
#: sweeps *slower* than the serial baseline.  Fault injection (tests)
#: and ``force_pool`` callers (the fuzz oracle's process-boundary
#: cross-check) still get real worker processes.
INLINE_TASK_THRESHOLD = 4


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: the CPUs this
    process can *actually* run on.  ``os.cpu_count()`` reports the
    whole machine and oversubscribes the pool inside cgroup- or
    affinity-restricted containers (see :mod:`repro.cpus`)."""
    return available_cpus()


# -- requests --------------------------------------------------------------


class Request(NamedTuple):
    """One unit of work: immutable, picklable and hashable.

    ``target`` is a suite program name (a ``str``) or a tuple of source
    paths, lowered as one linked program.  Make requests with
    :meth:`build`, which validates them; ``_replace`` derives keys
    from a built request without validating again.
    """

    #: ``analyze``, ``check``, ``query`` or ``slice``: the client
    #: :func:`execute` runs after the solve.
    kind: str
    target: Union[str, Tuple[str, ...]]
    flavors: Tuple[str, ...] = ("insensitive",)
    schedule: str = "batched"
    #: Lowering/summary cache: ``True`` (default directory), a
    #: directory, or ``False``/``None`` for off.
    cache: object = True
    #: Replay persisted per-SCC summaries (same solutions and digests).
    incremental: bool = False
    #: check: checker ids; ``None`` runs every registered checker and
    #: an empty selection runs none.
    checkers: Optional[Tuple[str, ...]] = None
    #: check: ``False``/``True`` (derivation witnesses) or ``"slice"``
    #: / ``"slice+deriv"`` (each finding's backward slice, with
    #: derivations too for the latter).
    witness: object = False
    #: slice: a ``file:line`` criterion or a check finding key (exactly
    #: one), and the direction to walk.
    criterion: Optional[str] = None
    finding: Optional[str] = None
    direction: str = "backward"
    #: The outcome carries only the JSON-safe ``payload`` (and, for a
    #: check, the findings ``digests``): programs, solutions and
    #: finding lists stay where they were computed.
    payload_only: bool = False

    @classmethod
    def build(cls, kind: str, target, **fields) -> Request:
        """A validated request, its flavors in run order.

        Raises :class:`RequestError` for an unknown flavor, schedule,
        checker id or slice direction, and for a slice without exactly
        one of ``criterion`` and ``finding``.
        """
        if not isinstance(target, str):
            target = tuple(str(path) for path in target)
        request = cls(kind, target, **fields)
        unknown = [f for f in request.flavors if f not in FLAVORS]
        if unknown or not request.flavors:
            what = (f"unknown analysis flavor {unknown[0]!r}" if unknown
                    else "no analysis flavor")
            raise RequestError(f"{what}; flavors must be a non-empty "
                               f"subset of {', '.join(FLAVORS)}")
        if request.schedule not in SCHEDULES:
            raise RequestError(
                f"unknown schedule {request.schedule!r}; expected one of "
                f"{', '.join(SCHEDULES)}")
        checkers = request.checkers
        if checkers is not None:
            from .analysis.checkers import REGISTRY

            checkers = tuple(checkers)
            try:
                REGISTRY.get(checkers)
            except AnalysisError as exc:
                raise RequestError(str(exc)) from None
        if kind == "slice":
            if request.direction not in DIRECTIONS:
                raise RequestError(
                    f"unknown slice direction {request.direction!r}; "
                    f"expected one of {', '.join(DIRECTIONS)}")
            if (request.criterion is None) == (request.finding is None):
                raise RequestError(
                    "provide exactly one of 'criterion' (file:line) and "
                    "'finding' (a check finding key)")
        return request._replace(
            flavors=tuple(f for f in FLAVORS if f in request.flavors),
            checkers=checkers)

    @property
    def name(self) -> str:
        """The target as given: the suite name, or the source paths
        joined by ``+``.  Telemetry records, errors and fault
        injection name the target by it."""
        if isinstance(self.target, str):
            return self.target
        return "+".join(self.target)

    @property
    def hazard_model(self) -> bool:
        """Whether the target lowers under the hazard model: checks do,
        and so do slices keyed on a finding (the model the finding was
        reported against, so its node exists in the graph)."""
        return self.kind == "check" or self.finding is not None


# -- outcome containers ----------------------------------------------------


class TaskError(NamedTuple):
    """A failed request: which target, and how it failed."""

    name: str
    #: Exception class name, or ``"WorkerDied"`` for a hard kill.
    kind: str
    message: str
    traceback: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.name}: {self.kind}: {self.message}"


class TaskOutcome(NamedTuple):
    """One request's result: analysis results *or* an error, plus the
    telemetry records describing whichever happened."""

    name: str
    results: Optional[Dict[str, AnalysisResult]] = None
    error: Optional[TaskError] = None
    records: Sequence[dict] = ()
    #: Checks: flavor → findings.  Findings are plain-string records,
    #: so a check outcome ships without pickling programs or solutions
    #: back to the parent.
    findings: Optional[Dict[str, list]] = None
    #: ``payload_only`` checks: flavor → findings digest.
    digests: Optional[Dict[str, str]] = None
    #: ``payload_only`` requests, queries and slices: the JSON-safe
    #: response payload built where the request ran.
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class RunReport(NamedTuple):
    """A whole sweep's outcomes, in request order."""

    outcomes: List[TaskOutcome]

    @property
    def results(self) -> Dict[str, Dict[str, AnalysisResult]]:
        """Successful requests only: ``{name: {flavor: result}}``."""
        return {o.name: o.results for o in self.outcomes if o.ok}

    @property
    def errors(self) -> List[TaskError]:
        return [o.error for o in self.outcomes if not o.ok]

    @property
    def records(self) -> List[dict]:
        """All telemetry records, flattened in request order."""
        return [rec for o in self.outcomes for rec in o.records]

    @property
    def ok(self) -> bool:
        return not self.errors


# -- execution -------------------------------------------------------------


def _maybe_inject_fault(name: str) -> None:
    spec = os.environ.get(FAULT_INJECT_ENV, "")
    if not spec:
        return
    for directive in spec.split(","):
        target, _, action = directive.partition("=")
        if target != name:
            continue
        if action == "exit":
            # Bypasses all exception handling and atexit machinery —
            # exactly what an OOM kill or segfault looks like from the
            # parent's side of the pipe.
            os._exit(3)
        if action == "raise":
            raise ReproError(f"injected fault for {name!r}")


def load(request: Request):
    """The request's target, lowered to a :class:`~repro.ir.graph.Program`.

    A suite name loads that suite source; source paths lower as one
    linked program.  The hazard lowering (see
    :attr:`Request.hazard_model`) is a distinct cache key, so check
    runs and plain analysis runs never poison each other's cache, and
    ``file:line`` slices share ``repro analyze``'s lowering.
    """
    options = {"cache": request.cache,
               "hazard_model": request.hazard_model}
    if isinstance(request.target, str):
        from .suite.registry import load_program
        return load_program(request.target, **options)
    from .frontend.pipeline import lower_file, lower_files
    if len(request.target) == 1:
        return lower_file(request.target[0], **options)
    return lower_files(request.target, **options)


def content_key(target) -> str:
    """The content hash of a request target's source files (see
    :func:`repro.frontend.cache.key_for_files`): the identity the
    daemon's payload LRU and a worker's graph memo key on."""
    from .frontend.cache import key_for_files
    if isinstance(target, str):
        from .suite.registry import program_path
        return key_for_files([program_path(target)])
    return key_for_files(target)


def _analyze_program(program, flavors: Tuple[str, ...], schedule: str,
                     incremental: bool = False,
                     cache: object = True
                     ) -> Dict[str, AnalysisResult]:
    if incremental:
        from .analysis.incremental import analyze_incremental
        return analyze_incremental(program, flavors=flavors,
                                   cache=cache, schedule=schedule)
    results: Dict[str, AnalysisResult] = {}
    if "insensitive" in flavors or "sensitive" in flavors:
        from .analysis.insensitive import analyze_insensitive
        ci = analyze_insensitive(program, schedule=schedule)
        if "insensitive" in flavors:
            results["insensitive"] = ci
        if "sensitive" in flavors:
            from .analysis.sensitive import analyze_sensitive
            results["sensitive"] = analyze_sensitive(
                program, ci_result=ci, schedule=schedule)
    if "flowinsensitive" in flavors:
        from .analysis.flowinsensitive import analyze_flowinsensitive
        results["flowinsensitive"] = analyze_flowinsensitive(
            program, schedule=schedule)
    return results


def execute(request: Request) -> TaskOutcome:
    """Run one request in this process: load, solve, then the kind's
    client.  Raises whatever fails; :func:`run` and :func:`_guarded`
    turn that into an error outcome."""
    _maybe_inject_fault(request.name)
    if request.kind == "slice" and request.payload_only:
        return _memo_slice(request)
    program = load(request)
    results = _analyze_program(program, request.flavors, request.schedule,
                               request.incremental, request.cache)
    if request.kind == "check":
        return _check(request, program, results)
    if request.kind == "slice":
        return _slice(request, results[request.flavors[0]])
    from .telemetry import result_records

    records = result_records(request.name, results, request.schedule)
    if request.kind == "query":
        return TaskOutcome(request.name, records=records,
                           payload=_query(request,
                                          results[request.flavors[0]]))
    if request.payload_only:
        from .serve.payload import analysis_payload
        return TaskOutcome(request.name, records=records,
                           payload=analysis_payload(
                               request.name, results, request.schedule))
    return TaskOutcome(request.name, results=results, records=records)


def _check(request: Request, program, results) -> TaskOutcome:
    """Run the checkers over every flavor's result.

    The outcome ships findings and telemetry — never the program or
    solutions — so a suite-wide check sweep's IPC cost is a few KB per
    program.  With ``payload_only`` the finding lists stay here too:
    the outcome carries each flavor's findings digest (the one its
    telemetry record holds) and the daemon's JSON payload.
    """
    from time import perf_counter

    from .analysis.checkers import run_checkers
    from .telemetry import check_record

    # Witness text is excluded from keys and digests, so no witness
    # setting changes what payload_only callers compare.
    slice_witness = request.witness in ("slice", "slice+deriv")
    derivations = (request.witness is True
                   or request.witness == "slice+deriv")
    findings: Dict[str, list] = {}
    records: List[dict] = []
    # One lowering serves every flavor below — each record carries the
    # same lowering-cache status on purpose (see check_record).
    lowering_status = program.extras.get("cache", "off")
    for flavor, result in results.items():
        table = result.solution.table
        before = table.decode_calls
        start = perf_counter()
        found = run_checkers(result, request.checkers, witness=derivations)
        if slice_witness:
            from .analysis.slicing import attach_slice_witnesses
            attach_slice_witnesses(found, result)
        elapsed = perf_counter() - start
        findings[flavor] = found
        dense = {"decode_calls_before": before,
                 "decode_calls_after": table.decode_calls}
        for counter in ("sccs_resolved", "summaries_reused",
                        "summary_cache_hits", "summary_scc_total"):
            value = result.extras.get("dense", {}).get(counter)
            if value is not None:
                dense[counter] = value
        records.append(check_record(
            request.name, flavor, found, elapsed, request.schedule,
            dense=dense, cache=lowering_status))
    if not request.payload_only:
        return TaskOutcome(request.name, records=records,
                           findings=findings)
    from .serve.payload import check_payload

    digests = {record["flavor"]: record["digest"] for record in records}
    return TaskOutcome(request.name, records=records, digests=digests,
                       payload=check_payload(request.name, digests,
                                             records, request.schedule))


def _client_payload(request: Request, tier: Optional[str],
                    **fields) -> dict:
    """A query or slice response: the program, flavor and schedule, the
    cache tier that answered (``payload_only`` payloads only: ``repro
    slice`` prints the payload without one), then ``fields``."""
    payload = {"program": request.name, "flavor": request.flavors[0],
               "schedule": request.schedule}
    if request.payload_only:
        payload["tier"] = tier
    payload.update(fields)
    return payload


def _query(request: Request, result) -> dict:
    """The location set of every indirect memory operation (the
    paper's Figure 4 operations).  The daemon's ``function``/``line``
    filters select from this list."""
    from .serve.payload import result_tier

    operations: List[dict] = []
    for name, graph in sorted(result.program.functions.items()):
        for node in graph.memory_operations():
            if node.is_indirect:
                operations.append({
                    "function": name, "kind": node.kind,
                    "origin": node.origin or "",
                    "locations": sorted(
                        repr(p) for p in result.op_locations(node))})
    return _client_payload(request, result_tier(result),
                           operations=operations)


#: This process's dependence graphs for ``payload_only`` slices, least
#: recently used first, keyed on what the solve depends on: the
#: lowering (plain or hazard model), the target's content hash, the
#: flavor and the schedule.  A graph holds its solved result and
#: program, so a daemon's next criterion or finding over a program
#: this pool worker has sliced skips lowering, summary replay and the
#: graph build.  At most ``_GRAPHS_KEPT`` graphs stay.
_GRAPHS: "OrderedDict[tuple, DependenceGraph]" = OrderedDict()
_GRAPHS_KEPT = 8


def _memo_slice(request: Request) -> TaskOutcome:
    """A ``payload_only`` slice through :data:`_GRAPHS`: a memo hit
    answers tier ``solution``, a miss the tier of its solve."""
    from .analysis.depgraph import build_depgraph
    from .serve.payload import result_tier

    key = (request.hazard_model, content_key(request.target),
           request.flavors, request.schedule)
    graph = _GRAPHS.pop(key, None)
    tier = "solution"
    if graph is None:
        program = load(request)
        result = _analyze_program(
            program, request.flavors, request.schedule,
            request.incremental, request.cache)[request.flavors[0]]
        graph = build_depgraph(result)
        tier = result_tier(result)
    _GRAPHS[key] = graph
    if len(_GRAPHS) > _GRAPHS_KEPT:
        _GRAPHS.popitem(last=False)
    return _slice(request, graph.result, graph, tier)


def _slice(request: Request, result, graph=None,
           tier: Optional[str] = None) -> TaskOutcome:
    """Slice the dependence graph (built here unless given) from the
    criterion or the finding; the outcome ships the slice document
    (the slice, the graph's stats and digest, and labels for the
    slice's nodes) and one ``kind="slice"`` record, while programs,
    solutions and the graph stay here.

    A criterion or finding key that matches nothing raises
    :class:`RequestError`: the request, not the analysis, is wrong.
    """
    from time import perf_counter

    from .analysis.depgraph import build_depgraph
    from .analysis.slicing import (resolve_finding, slice_criterion,
                                   slice_for_finding)
    from .telemetry import slice_record

    table = result.solution.table
    before = table.decode_calls
    start = perf_counter()
    if graph is None:
        graph = build_depgraph(result)
    try:
        if request.finding is None:
            sliced = slice_criterion(graph, request.criterion,
                                     request.direction)
        else:
            from .analysis.checkers import run_checkers
            finding = resolve_finding(run_checkers(result),
                                      request.finding)
            sliced = slice_for_finding(graph, finding, request.direction)
    except AnalysisError as exc:
        raise RequestError(str(exc)) from None
    elapsed = perf_counter() - start
    slice_dict = sliced.as_dict()
    members = set(slice_dict["nodes"])
    payload = _client_payload(
        request, tier, slice=slice_dict,
        graph={"stats": graph.stats(), "digest": graph.digest()},
        node_info={key: {"function": fn, "kind": kind, "origin": origin}
                   for key, (fn, kind, origin)
                   in sorted(graph.nodes.items()) if key in members})
    record = slice_record(
        request.name, request.flavors[0], payload["slice"],
        payload["graph"]["stats"], payload["graph"]["digest"], elapsed,
        request.schedule,
        dense={"decode_calls_before": before,
               "decode_calls_after": table.decode_calls},
        cache=result.program.extras.get("cache", "off"))
    return TaskOutcome(request.name, records=[record], payload=payload)


def _error_outcome(name: str, exc: BaseException) -> TaskOutcome:
    import traceback

    from .telemetry import error_record

    kind = type(exc).__name__
    message = str(exc) or kind
    tb = traceback.format_exc()
    return TaskOutcome(
        name=name,
        error=TaskError(name=name, kind=kind, message=message,
                        traceback=tb),
        records=[error_record(name, kind, message, tb)])


def _dead_worker_outcome(name: str) -> TaskOutcome:
    from .telemetry import error_record

    message = (f"worker process died while analyzing {name!r} "
               "(killed or crashed hard)")
    return TaskOutcome(
        name=name,
        error=TaskError(name=name, kind="WorkerDied", message=message),
        records=[error_record(name, "WorkerDied", message)])


#: Per-task address-space budget in MiB, applied (and restored) around
#: every guarded worker invocation.  Set by the serve daemon's
#: ``--request-memory-mb`` so one pathological request hits a clean
#: ``MemoryError`` (→ structured error outcome) instead of dragging
#: the host into swap; unset for CLI sweeps.
RLIMIT_ENV = "REPRO_RLIMIT_MB"


def _apply_request_rlimit():
    """Install the ``RLIMIT_ENV`` soft address-space cap, returning the
    previous limits for :func:`_restore_request_rlimit` (or ``None``
    when no cap is configured / the platform refuses)."""
    spec = os.environ.get(RLIMIT_ENV, "")
    try:
        mem_mb = int(spec)
    except ValueError:
        return None
    if mem_mb <= 0:
        return None
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only container
        return None
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = mem_mb * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - platform refusal
        return None
    return (soft, hard)


def _restore_request_rlimit(saved) -> None:
    if saved is None:
        return
    try:
        import resource
        resource.setrlimit(resource.RLIMIT_AS, saved)
    except (ValueError, OSError):  # pragma: no cover - platform refusal
        pass


def _guarded(request: Request) -> TaskOutcome:
    """Execute ``request`` catching its exceptions into an error outcome.

    The one function every pool task runs, *in the worker process*, so
    a raising request ships back one structured outcome instead of
    poisoning the pool.  ``BaseException`` is deliberate: a
    ``KeyboardInterrupt`` or ``SystemExit`` inside one task should fail
    that task, not tear down the sweep (a genuine parent-side Ctrl-C
    still interrupts the parent's ``wait``).  The optional per-task
    memory cap (see :data:`RLIMIT_ENV`) surfaces as a caught
    ``MemoryError`` here — a budget-blown task fails structurally, its
    pool survives.
    """
    saved = _apply_request_rlimit()
    try:
        return execute(request)
    except BaseException as exc:
        return _error_outcome(request.name, exc)
    finally:
        _restore_request_rlimit(saved)


# -- engine ----------------------------------------------------------------


def _run_isolated(request: Request) -> TaskOutcome:
    """Re-run one request in its own fresh single-worker pool.

    Used after a ``BrokenProcessPool``: every pending future in the
    broken pool failed, with no record of which request actually killed
    its worker.  A private pool per survivor means a request that dies
    *again* breaks only its own pool — identifying the culprit by name
    — while innocent bystanders just complete.  (Re-running inline
    would let an ``os._exit`` request kill the driver itself.)
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_guarded, request).result()
    except BrokenProcessPool:
        return _dead_worker_outcome(request.name)


def _tag_rss_scope(outcome: TaskOutcome, scope: str,
                   baseline_kb: Optional[int] = None) -> None:
    """Annotate an outcome's telemetry records with whose memory
    ``peak_rss_kb`` actually describes.

    Worker-pool records measure a process that ran (approximately)
    just that request, so ``rss_scope="worker"`` and the number stands
    on its own.  Inline records measure the *parent* — its cumulative
    peak includes every earlier request and the driver itself, so raw
    ``peak_rss_kb`` grows monotonically along a sweep and was easy to
    misread as per-request cost.  Those records get
    ``rss_scope="process"`` plus ``rss_delta_kb``, the growth of the
    process peak over the pre-request baseline (0 when the request fit
    under the existing high-water mark — peak RSS never goes down).
    """
    for record in outcome.records:
        if "peak_rss_kb" not in record:
            continue
        record["rss_scope"] = scope
        if scope == "process":
            peak = record["peak_rss_kb"]
            if peak is None or baseline_kb is None:
                record["rss_delta_kb"] = None
            else:
                record["rss_delta_kb"] = max(0, peak - baseline_kb)


def run(requests: Sequence[Request], jobs: Optional[int] = None,
        fail_fast: bool = False, force_pool: bool = False) -> RunReport:
    """Execute ``requests``, isolating per-request failures.

    Returns a :class:`RunReport` with one :class:`TaskOutcome` per
    request, in request order.  With ``fail_fast=False`` (default) a
    failing request becomes an error outcome and the sweep continues;
    with ``fail_fast=True`` the first failure raises :class:`ReproError`
    naming the target (completed outcomes are discarded).  ``jobs``
    defaults to the CPU count; ``jobs=1`` — or a sweep small enough
    that executor setup would dominate — runs inline, and
    ``force_pool=True`` guarantees worker processes for any sweep of
    two or more requests.
    """
    # An unspecified job count is capped at the core count (more
    # workers only adds fork/IPC overhead for this CPU-bound
    # workload); an *explicit* jobs=N is honored even on fewer cores —
    # the caller may want process isolation itself, not throughput.
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(requests))) if requests else 1

    outcomes: List[Optional[TaskOutcome]] = [None] * len(requests)

    if not force_pool and not os.environ.get(FAULT_INJECT_ENV) \
            and len(requests) <= INLINE_TASK_THRESHOLD:
        # Tiny sweep: executor setup would dominate; run it here.
        # (Fault-injection tests need real processes — an injected
        # os._exit would take the caller down with it.)
        jobs = 1

    if jobs == 1:
        # Inline guard catches only Exception: a Ctrl-C in the calling
        # process must interrupt the sweep, not become an "outcome".
        from .telemetry import peak_rss_kb

        for index, request in enumerate(requests):
            baseline = peak_rss_kb()
            try:
                outcome = execute(request)
            except Exception as exc:
                outcome = _error_outcome(request.name, exc)
            if not outcome.ok and fail_fast:
                raise ReproError(f"task failed: {outcome.error}")
            _tag_rss_scope(outcome, "process", baseline)
            outcomes[index] = outcome
        return RunReport(outcomes=list(outcomes))

    from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                    wait)
    from concurrent.futures.process import BrokenProcessPool

    pending_retry: List[int] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_guarded, request): index
                   for index, request in enumerate(requests)}
        not_done = set(futures)
        broken = False
        while not_done:
            try:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
            except BrokenProcessPool:  # pragma: no cover - version-dep
                broken = True
                break
            for future in done:
                index = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # Poisons every sibling future too; collect them
                    # all for isolated re-runs below.
                    broken = True
                    continue
                if not outcome.ok and fail_fast:
                    for other in not_done:
                        other.cancel()
                    raise ReproError(f"task failed: {outcome.error}")
                _tag_rss_scope(outcome, "worker")
                outcomes[index] = outcome
            if broken:
                break
        if broken:
            pending_retry = [index for index, outcome
                             in enumerate(outcomes) if outcome is None]

    # The broken pool told us nothing about *which* request killed it —
    # every unresolved request gets a clean, isolated second chance.
    for index in pending_retry:
        outcome = _run_isolated(requests[index])
        if not outcome.ok and fail_fast:
            raise ReproError(f"task failed: {outcome.error}")
        _tag_rss_scope(outcome, "worker")
        outcomes[index] = outcome

    return RunReport(outcomes=[o for o in outcomes if o is not None])


# -- persistent pool (the serve daemon's cold path) ------------------------


class WorkerPool:
    """A long-lived fault-isolated process pool for one-request-at-a-time
    submission.

    :func:`run` builds (and tears down) a pool per sweep, which is
    right for batch CLI runs and wrong for a daemon: serve requests
    arrive one at a time over hours, and paying executor setup per
    request would swamp the work.  This pool persists across requests
    and applies the same fault contract as the sweep driver — worker
    exceptions come back as structured error outcomes, and a worker
    death (``BrokenProcessPool``) is contained by rebuilding the pool
    and retrying the request once in isolation, so one poisonous
    request can neither kill the daemon nor fail its innocent
    neighbors.

    Thread-safe: :meth:`run` may be called concurrently from the
    daemon's executor threads (``ProcessPoolExecutor`` submission is
    itself thread-safe; the lock only guards pool replacement).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        import threading

        self.max_workers = max_workers or default_jobs()
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Hard worker deaths observed (for /metrics).
        self.worker_deaths = 0

    def _executor(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers)
            return self._pool

    def _discard_broken(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def run(self, request: Request) -> TaskOutcome:
        """Run one request to an outcome, blocking the calling thread."""
        from concurrent.futures.process import BrokenProcessPool

        pool = self._executor()
        try:
            outcome = pool.submit(_guarded, request).result()
        except BrokenProcessPool:
            # The death may have been this request's doing or a
            # sibling's — give it one isolated retry, exactly like run.
            self.worker_deaths += 1
            self._discard_broken(pool)
            outcome = _run_isolated(request)
        _tag_rss_scope(outcome, "worker")
        return outcome

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


# -- the checker sweep's keyword entry point -------------------------------


def run_check_report(names: Optional[Sequence[str]] = None,
                     paths: Optional[Sequence] = None,
                     flavors: Sequence[str] = ("insensitive",),
                     checkers: Optional[Sequence[str]] = None,
                     jobs: Optional[int] = None,
                     schedule: str = "batched",
                     cache: object = True,
                     witness: object = False,
                     fail_fast: bool = False,
                     force_pool: bool = False,
                     incremental: bool = False,
                     digest_only: bool = False,
                     ) -> RunReport:
    """Run the bug checkers over suite programs and/or C files: one
    ``check`` request per target (the whole suite when neither
    ``names`` nor ``paths`` is given) through :func:`run`.

    Outcomes carry ``findings`` (flavor → finding list) and one
    ``kind="check"`` telemetry record per flavor.  ``digest_only=True``
    is the fast path for callers that only compare digests: outcomes
    carry ``digests`` (flavor → findings digest) instead, so finding
    lists are never pickled across the pool; the checker sweep itself
    is identical.
    """
    if paths is None and names is None:
        from .suite.registry import PROGRAM_NAMES
        names = PROGRAM_NAMES
    targets = [*(names or ()), *((path,) for path in paths or ())]
    requests = [Request.build(
        "check", target, flavors=tuple(flavors), schedule=schedule,
        cache=cache, incremental=incremental, checkers=checkers,
        witness=witness, payload_only=digest_only) for target in targets]
    return run(requests, jobs, fail_fast=fail_fast, force_pool=force_pool)
