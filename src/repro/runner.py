"""Fault-isolated parallel analysis driver.

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

* submits one future per task and drains them with ``as_completed``;
* catches exceptions *inside* the worker, shipping back a structured
  :class:`TaskOutcome` (name, results-or-error, telemetry records), so
  an analysis failure on one program is just that task's outcome;
* on ``BrokenProcessPool`` — a hard worker death poisons every pending
  future in the pool, not just the culprit's — re-runs each unresolved
  task in its own fresh single-worker pool, so survivors complete and
  the task that kills its pool *again* is identified by name.

Every outcome carries telemetry records (see :mod:`repro.telemetry`):
one ``kind="analysis"`` record per flavor, or one ``kind="error"``
record naming the failed task, ready for ``--telemetry`` JSON-lines
output.

``jobs=1`` (or a single task) runs inline in the calling process with
no executor, keeping the driver usable where fork is unavailable and
keeping tracebacks simple.  Inline runs honor ``fail_fast`` too:
``fail_fast=False`` (the default) converts per-task exceptions into
error outcomes; ``fail_fast=True`` lets the first one propagate.

For tests, the hook ``REPRO_FAULT_INJECT="<name>=exit"`` (or
``<name>=raise``) makes the worker for ``<name>`` die hard / raise —
an env var survives both fork and spawn, unlike a monkeypatch.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .cpus import available_cpus
from .errors import ReproError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .analysis.common import AnalysisResult

#: Analysis flavors the driver understands, in run order (CI first:
#: the CS pass reuses its result, the FI baseline is independent).
FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

#: Test hook: ``"<name>=exit"`` kills the worker processing ``<name>``
#: via ``os._exit(3)`` (simulating an OOM kill / segfault);
#: ``"<name>=raise"`` makes it raise.  Multiple directives separated
#: by commas.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Sweeps at or below this many tasks run inline even when ``jobs > 1``:
#: forking an executor, importing the package in each worker, and
#: pickling results back costs more wall-clock than analyzing a handful
#: of programs does, which made tiny parallel sweeps *slower* than the
#: serial baseline.  Fault injection (tests) and ``force_pool`` callers
#: (the fuzz oracle's process-boundary cross-check) still get real
#: worker processes.
INLINE_TASK_THRESHOLD = 4


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: the CPUs this
    process can *actually* run on.  ``os.cpu_count()`` reports the
    whole machine and oversubscribes the pool inside cgroup- or
    affinity-restricted containers (see :mod:`repro.cpus`)."""
    return available_cpus()


def _check_flavors(flavors: Sequence[str]) -> Tuple[str, ...]:
    for flavor in flavors:
        if flavor not in FLAVORS:
            raise ReproError(
                f"unknown analysis flavor {flavor!r}; expected one of "
                f"{', '.join(FLAVORS)}")
    return tuple(flavors)


# -- outcome containers ----------------------------------------------------


@dataclass
class TaskError:
    """A failed task: which program, and how it failed."""

    name: str
    #: Exception class name, or ``"WorkerDied"`` for a hard kill.
    kind: str
    message: str
    traceback: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.name}: {self.kind}: {self.message}"


@dataclass
class TaskOutcome:
    """One task's result: analysis results *or* an error, plus the
    telemetry records describing whichever happened."""

    name: str
    results: Optional[Dict[str, AnalysisResult]] = None
    error: Optional[TaskError] = None
    records: List[dict] = field(default_factory=list)
    #: Checker output (``repro check`` tasks only): flavor → findings.
    #: Findings are plain-string records, so a check outcome ships
    #: without pickling programs or solutions back to the parent.
    findings: Optional[Dict[str, list]] = None
    #: Digest-only check tasks: flavor → findings digest.  The full
    #: finding lists never cross the process boundary — a digest plus
    #: the per-record counts is all the parent asked for.
    digests: Optional[Dict[str, str]] = None
    #: Serve tasks: the JSON-safe response payload built in the worker
    #: (digests, pair census, counters) — solutions stay worker-side.
    payload: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunReport:
    """A whole sweep's outcomes, in task submission order."""

    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def results(self) -> Dict[str, Dict[str, AnalysisResult]]:
        """Successful tasks only: ``{name: {flavor: result}}``."""
        return {o.name: o.results for o in self.outcomes if o.ok}

    @property
    def errors(self) -> List[TaskError]:
        return [o.error for o in self.outcomes if not o.ok]

    @property
    def records(self) -> List[dict]:
        """All telemetry records, flattened in task order."""
        return [rec for o in self.outcomes for rec in o.records]

    @property
    def ok(self) -> bool:
        return not self.errors


# -- workers ---------------------------------------------------------------


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


def _suite_worker(task) -> TaskOutcome:
    """Module-level so ProcessPoolExecutor can pickle the callable."""
    name, flavors, schedule, cache, incremental = task
    from .suite.registry import load_program
    from .telemetry import result_records

    _maybe_inject_fault(name)
    program = load_program(name, cache=cache)
    results = _analyze_program(program, flavors, schedule, incremental,
                               cache)
    return TaskOutcome(name=name, results=results,
                       records=result_records(name, results, schedule))


def _file_worker(task) -> TaskOutcome:
    path, flavors, schedule, cache, incremental = task
    from .frontend.pipeline import lower_file
    from .telemetry import result_records

    name = str(path)
    _maybe_inject_fault(name)
    program = lower_file(path, cache=cache)
    results = _analyze_program(program, flavors, schedule, incremental,
                               cache)
    return TaskOutcome(name=name, results=results,
                       records=result_records(name, results, schedule))


def _check_worker(task) -> TaskOutcome:
    """Lower (hazard model on), analyze, and run checkers.

    The outcome ships only findings and telemetry — never the program
    or solutions — so a suite-wide check sweep's IPC cost is a few KB
    per task.  The hazard lowering is a distinct cache key, so check
    runs and plain analysis runs never poison each other's cache.

    With ``digest_only`` set the finding lists stay worker-side too:
    the outcome carries one digest per flavor (computed here, from the
    same rendered findings the full path would ship) plus the usual
    count-carrying records — for callers like the serve daemon that
    compare or report digests and never look at a finding.
    """
    (name, is_suite, flavors, schedule, cache, checkers, witness,
     incremental, digest_only) = task
    from time import perf_counter

    from .analysis.checkers import run_checkers
    from .telemetry import check_record

    # ``witness`` is False/True (derivation witnesses) or the string
    # "slice" / "slice+deriv": attach each finding's backward slice
    # over the alias-aware dependence graph (with derivations too for
    # the latter).  Witness text is excluded from keys and digests, so
    # none of these change what digest_only callers compare.
    slice_witness = witness in ("slice", "slice+deriv")
    derivations = witness is True or witness == "slice+deriv"

    _maybe_inject_fault(name)
    if is_suite:
        from .suite.registry import load_program
        program = load_program(name, cache=cache, hazard_model=True)
    else:
        from .frontend.pipeline import lower_file
        program = lower_file(name, cache=cache, hazard_model=True)
    results = _analyze_program(program, flavors, schedule, incremental,
                               cache)
    findings: Dict[str, list] = {}
    records: List[dict] = []
    # One lowering serves every flavor below — each record carries the
    # same lowering-cache status on purpose (see check_record).
    lowering_status = program.extras.get("cache", "off")
    for flavor, result in results.items():
        table = result.solution.table
        before = table.decode_calls
        start = perf_counter()
        found = run_checkers(result, checkers, witness=derivations)
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
            name, flavor, found, elapsed, schedule,
            dense=dense, cache=lowering_status))
    if digest_only:
        from .analysis.checkers import findings_digest
        digests = {flavor: findings_digest(found)
                   for flavor, found in findings.items()}
        return TaskOutcome(name=name, records=records, digests=digests)
    return TaskOutcome(name=name, records=records, findings=findings)


def _serve_analyze_worker(task) -> TaskOutcome:
    """Analyze one serve request, shipping back a JSON-safe payload.

    Same lowering and analysis path as :func:`_suite_worker` /
    :func:`_file_worker` — that shared path is what makes served
    digests byte-equal to CLI runs — but the outcome carries only the
    response payload (per-flavor solution digests, pair census,
    counters) plus telemetry records.  Programs and solutions never
    cross the pipe: a serve worker's IPC cost is a few KB per request
    regardless of program size.
    """
    name, is_suite, flavors, schedule, cache, incremental = task
    from .serve.payload import analysis_payload
    from .telemetry import result_records

    _maybe_inject_fault(name)
    if is_suite:
        from .suite.registry import load_program
        program = load_program(name, cache=cache)
    else:
        from .frontend.pipeline import lower_file
        program = lower_file(name, cache=cache)
    results = _analyze_program(program, flavors, schedule, incremental,
                               cache)
    return TaskOutcome(name=name,
                       records=result_records(name, results, schedule),
                       payload=analysis_payload(name, results, schedule))


def _slice_worker(task) -> TaskOutcome:
    """Analyze one program and compute a dependence-graph slice.

    The outcome ships a JSON-safe payload — the slice (node keys,
    origins, edges, digest), the dependence graph's stats and digest,
    and per-node labels for DOT rendering — plus one ``kind="slice"``
    telemetry record.  Programs, solutions, and the graph itself stay
    worker-side.

    Finding-keyed slices (``from_finding``) lower under the hazard
    model — the model the finding was reported against, so its node
    exists in the graph; ``file:line`` criteria use the plain lowering
    so slice digests line up with ``repro analyze`` results.
    """
    (name, is_suite, flavor, schedule, cache, criterion, from_finding,
     direction, incremental) = task
    from time import perf_counter

    from .analysis.depgraph import build_depgraph
    from .analysis.slicing import (resolve_finding, slice_criterion,
                                   slice_for_finding)
    from .telemetry import slice_record

    _maybe_inject_fault(name)
    hazard = from_finding is not None
    if is_suite:
        from .suite.registry import load_program
        program = load_program(name, cache=cache, hazard_model=hazard)
    else:
        from .frontend.pipeline import lower_file
        program = lower_file(name, cache=cache, hazard_model=hazard)
    result = _analyze_program(program, (flavor,), schedule, incremental,
                              cache)[flavor]
    table = result.solution.table
    before = table.decode_calls
    start = perf_counter()
    graph = build_depgraph(result)
    if from_finding is not None:
        from .analysis.checkers import run_checkers
        finding = resolve_finding(run_checkers(result), from_finding)
        slice_result = slice_for_finding(graph, finding, direction)
    else:
        slice_result = slice_criterion(graph, criterion, direction)
    elapsed = perf_counter() - start

    slice_dict = slice_result.as_dict()
    stats = graph.stats()
    digest = graph.digest()
    members = set(slice_dict["nodes"])
    payload = {
        "program": name, "flavor": flavor, "schedule": schedule,
        "slice": slice_dict,
        "graph": {"stats": stats, "digest": digest},
        "node_info": {key: {"function": fn, "kind": kind,
                            "origin": origin}
                      for key, (fn, kind, origin)
                      in sorted(graph.nodes.items())
                      if key in members},
    }
    record = slice_record(
        name, flavor, slice_dict, stats, digest, elapsed, schedule,
        dense={"decode_calls_before": before,
               "decode_calls_after": table.decode_calls},
        cache=program.extras.get("cache", "off"))
    return TaskOutcome(name=name, records=[record], payload=payload)


def _error_outcome(name: str, exc: BaseException,
                   with_traceback: bool = True) -> TaskOutcome:
    from .telemetry import error_record

    kind = type(exc).__name__
    message = str(exc) or kind
    tb = (traceback.format_exc() if with_traceback else None)
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


def _guarded(worker, task) -> TaskOutcome:
    """Run ``worker`` catching its exceptions into an error outcome.

    Runs *in the worker process*, so a raising task ships back one
    structured outcome instead of poisoning the whole ``pool.map``.
    ``BaseException`` is deliberate: a ``KeyboardInterrupt`` or
    ``SystemExit`` inside one task should fail that task, not tear
    down the sweep (a genuine parent-side Ctrl-C still interrupts the
    parent's ``wait``).  The optional per-task memory cap (see
    :data:`RLIMIT_ENV`) surfaces as a caught ``MemoryError`` here —
    a budget-blown task fails structurally, its pool survives.
    """
    name = str(task[0])
    saved = _apply_request_rlimit()
    try:
        return worker(task)
    except BaseException as exc:
        return _error_outcome(name, exc)
    finally:
        _restore_request_rlimit(saved)


# a top-level partial target: ProcessPoolExecutor needs picklables
def _guarded_suite_worker(task) -> TaskOutcome:
    return _guarded(_suite_worker, task)


def _guarded_file_worker(task) -> TaskOutcome:
    return _guarded(_file_worker, task)


def _guarded_check_worker(task) -> TaskOutcome:
    return _guarded(_check_worker, task)


def _guarded_serve_analyze_worker(task) -> TaskOutcome:
    return _guarded(_serve_analyze_worker, task)


def _guarded_slice_worker(task) -> TaskOutcome:
    return _guarded(_slice_worker, task)


_GUARDED = {_suite_worker: _guarded_suite_worker,
            _file_worker: _guarded_file_worker,
            _check_worker: _guarded_check_worker,
            _serve_analyze_worker: _guarded_serve_analyze_worker,
            _slice_worker: _guarded_slice_worker}


# -- engine ----------------------------------------------------------------


def _run_isolated(worker, task) -> TaskOutcome:
    """Re-run one task in its own fresh single-worker pool.

    Used after a ``BrokenProcessPool``: every pending future in the
    broken pool failed, with no record of which task actually killed
    its worker.  A private pool per survivor means a task that dies
    *again* breaks only its own pool — identifying the culprit by name
    — while innocent bystanders just complete.  (Re-running inline
    would let an ``os._exit`` task kill the driver itself.)
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    guarded = _GUARDED.get(worker, worker)
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(guarded, task).result()
    except BrokenProcessPool:
        return _dead_worker_outcome(str(task[0]))


def _tag_rss_scope(outcome: TaskOutcome, scope: str,
                   baseline_kb: Optional[int] = None) -> None:
    """Annotate an outcome's telemetry records with whose memory
    ``peak_rss_kb`` actually describes.

    Worker-pool records measure a process that ran (approximately)
    just that task, so ``rss_scope="worker"`` and the number stands on
    its own.  Inline records measure the *parent* — its cumulative
    peak includes every earlier task and the driver itself, so raw
    ``peak_rss_kb`` grows monotonically along a sweep and was easy to
    misread as per-task cost.  Those records get
    ``rss_scope="process"`` plus ``rss_delta_kb``, the growth of the
    process peak over the pre-task baseline (0 when the task fit
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


def run_tasks(worker, tasks: List[tuple], jobs: Optional[int] = None,
              fail_fast: bool = False, force_pool: bool = False) -> RunReport:
    """Run ``worker`` over ``tasks``, isolating per-task failures.

    Returns a :class:`RunReport` with one :class:`TaskOutcome` per
    task, in submission order.  With ``fail_fast=False`` (default) a
    failing task becomes an error outcome and the sweep continues;
    with ``fail_fast=True`` the first failure raises :class:`ReproError`
    naming the task (completed outcomes are discarded, matching the
    old ``pool.map`` contract).  ``force_pool=True`` guarantees worker
    processes even for sweeps small enough to run inline.
    """
    # An unspecified job count is capped at the core count (more
    # workers only adds fork/IPC overhead for this CPU-bound
    # workload); an *explicit* jobs=N is honored even on fewer cores —
    # the caller may want process isolation itself, not throughput.
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(tasks))) if tasks else 1
    guarded = _GUARDED.get(worker, worker)

    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

    if not force_pool and not os.environ.get(FAULT_INJECT_ENV) \
            and len(tasks) <= INLINE_TASK_THRESHOLD:
        # Tiny sweep: executor setup would dominate; run it here.
        # (Fault-injection tests need real processes — an injected
        # os._exit would take the caller down with it.)
        jobs = 1

    if jobs == 1:
        # Inline guard catches only Exception: a Ctrl-C in the calling
        # process must interrupt the sweep, not become an "outcome".
        from .telemetry import peak_rss_kb

        for index, task in enumerate(tasks):
            baseline = peak_rss_kb()
            try:
                outcome = worker(task)
            except Exception as exc:
                outcome = _error_outcome(str(task[0]), exc)
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
        futures = {pool.submit(guarded, task): index
                   for index, task in enumerate(tasks)}
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

    # The broken pool told us nothing about *which* task killed it —
    # every unresolved task gets a clean, isolated second chance.
    for index in pending_retry:
        outcome = _run_isolated(worker, tasks[index])
        if not outcome.ok and fail_fast:
            raise ReproError(f"task failed: {outcome.error}")
        _tag_rss_scope(outcome, "worker")
        outcomes[index] = outcome

    return RunReport(outcomes=[o for o in outcomes if o is not None])


# -- persistent pool (the serve daemon's cold path) ------------------------


class WorkerPool:
    """A long-lived fault-isolated process pool for one-task-at-a-time
    submission.

    :func:`run_tasks` builds (and tears down) a pool per sweep, which
    is right for batch CLI runs and wrong for a daemon: serve requests
    arrive one at a time over hours, and paying executor setup per
    request would swamp the work.  This pool persists across requests
    and applies the same fault contract as the sweep driver — worker
    exceptions come back as structured error outcomes, and a worker
    death (``BrokenProcessPool``) is contained by rebuilding the pool
    and retrying the task once in isolation, so one poisonous request
    can neither kill the daemon nor fail its innocent neighbors.

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

    def run(self, worker, task) -> TaskOutcome:
        """Run one task to an outcome, blocking the calling thread."""
        from concurrent.futures.process import BrokenProcessPool

        guarded = _GUARDED.get(worker, worker)
        pool = self._executor()
        try:
            outcome = pool.submit(guarded, task).result()
        except BrokenProcessPool:
            # The death may have been this task's doing or a sibling's
            # — give it one isolated retry, exactly like run_tasks.
            self.worker_deaths += 1
            self._discard_broken(pool)
            outcome = _run_isolated(worker, task)
        _tag_rss_scope(outcome, "worker")
        return outcome

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


# -- public drivers --------------------------------------------------------


def run_suite_report(names: Optional[Sequence[str]] = None,
                     flavors: Sequence[str] = ("insensitive", "sensitive"),
                     jobs: Optional[int] = None,
                     schedule: str = "batched",
                     cache: object = True,
                     fail_fast: bool = False,
                     force_pool: bool = False,
                     incremental: bool = False,
                     ) -> RunReport:
    """Analyze suite programs across processes, fault-isolated.

    Returns a :class:`RunReport`; ``report.results`` maps each
    *successful* program to its ``{flavor: AnalysisResult}`` dict and
    ``report.errors`` names each failed one.  ``jobs`` defaults to the
    CPU count; ``jobs=1`` — or a sweep small enough that executor
    setup would dominate — runs inline (``force_pool=True`` overrides).
    ``cache`` controls the persistent lowering cache (on by default
    for suite sources).
    """
    from .suite.registry import PROGRAM_NAMES

    if names is None:
        names = PROGRAM_NAMES
    flavors = _check_flavors(flavors)
    tasks = [(name, flavors, schedule, cache, incremental)
             for name in names]
    return run_tasks(_suite_worker, tasks, jobs, fail_fast=fail_fast,
                     force_pool=force_pool)


def run_files_report(paths: Sequence,
                     flavors: Sequence[str] = ("insensitive",),
                     jobs: Optional[int] = None,
                     schedule: str = "batched",
                     cache: object = None,
                     fail_fast: bool = False,
                     force_pool: bool = False,
                     incremental: bool = False,
                     ) -> RunReport:
    """Analyze several C files as *independent* programs, in parallel.

    Unlike :func:`repro.parse_files`, the files are not linked into
    one program — each is lowered and analyzed on its own, which is
    what a multi-file sweep (one program per file) wants.  Outcomes
    come back in input order.
    """
    flavors = _check_flavors(flavors)
    tasks = [(str(p), flavors, schedule, cache, incremental)
             for p in paths]
    return run_tasks(_file_worker, tasks, jobs, fail_fast=fail_fast,
                     force_pool=force_pool)


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
    """Run the bug checkers over suite programs and/or C files.

    Each task lowers its program under the hazard model (``<null>`` /
    ``<uninit>`` summary cells), runs the requested analysis flavors,
    and sweeps the selected checkers over each.  Outcomes carry
    ``findings`` (flavor → finding list) and one ``kind="check"``
    telemetry record per flavor; programs and solutions stay in the
    workers.  ``checkers=None`` runs every registered checker;
    checker names are validated here, before any worker forks.

    ``witness`` is ``False``/``True`` (attach derivation witnesses) or
    ``"slice"`` / ``"slice+deriv"`` — attach each finding's backward
    dependence-graph slice (optionally alongside derivations).

    ``digest_only=True`` is the fast path for callers that only
    compare digests (the serve daemon, determinism cross-checks):
    outcomes carry ``digests`` (flavor → findings digest) instead of
    ``findings``, so finding lists are never pickled across the pool.
    Per-flavor counts still arrive in the telemetry records, and the
    checker sweep itself is identical — same decode-call footprint,
    same digests.
    """
    from .analysis.checkers import REGISTRY
    from .suite.registry import PROGRAM_NAMES

    REGISTRY.get(checkers)
    flavors = _check_flavors(flavors)
    checkers = tuple(checkers) if checkers is not None else None
    tasks = []
    if paths is None and names is None:
        names = PROGRAM_NAMES
    for name in names or ():
        tasks.append((name, True, flavors, schedule, cache, checkers,
                      witness, incremental, digest_only))
    for path in paths or ():
        tasks.append((str(path), False, flavors, schedule, cache,
                      checkers, witness, incremental, digest_only))
    return run_tasks(_check_worker, tasks, jobs, fail_fast=fail_fast,
                     force_pool=force_pool)


def run_slice_report(names: Optional[Sequence[str]] = None,
                     paths: Optional[Sequence] = None,
                     flavor: str = "insensitive",
                     criterion: Optional[str] = None,
                     from_finding: Optional[str] = None,
                     direction: str = "backward",
                     jobs: Optional[int] = None,
                     schedule: str = "batched",
                     cache: object = True,
                     fail_fast: bool = False,
                     force_pool: bool = False,
                     incremental: bool = False,
                     ) -> RunReport:
    """Compute dependence-graph slices, one task per program.

    Exactly one of ``criterion`` (``file:line``) / ``from_finding``
    (a ``repro check`` finding key or unique substring) selects the
    slice roots; every task applies the same criterion, so a
    multi-program sweep answers "who else touches this line".
    Outcomes carry a JSON-safe ``payload`` (slice, graph stats and
    digest, node labels) and one ``kind="slice"`` record.
    """
    from .analysis.slicing import DIRECTIONS
    from .suite.registry import PROGRAM_NAMES

    if (criterion is None) == (from_finding is None):
        raise ReproError(
            "exactly one of 'criterion' and 'from_finding' must be "
            "given")
    if direction not in DIRECTIONS:
        raise ReproError(
            f"unknown slice direction {direction!r}; expected one of "
            f"{', '.join(DIRECTIONS)}")
    _check_flavors((flavor,))
    tasks = []
    if paths is None and names is None:
        names = PROGRAM_NAMES
    for name in names or ():
        tasks.append((name, True, flavor, schedule, cache, criterion,
                      from_finding, direction, incremental))
    for path in paths or ():
        tasks.append((str(path), False, flavor, schedule, cache,
                      criterion, from_finding, direction, incremental))
    return run_tasks(_slice_worker, tasks, jobs, fail_fast=fail_fast,
                     force_pool=force_pool)


def run_suite(names: Optional[Sequence[str]] = None,
              flavors: Sequence[str] = ("insensitive", "sensitive"),
              jobs: Optional[int] = None,
              schedule: str = "batched",
              cache: object = True,
              ) -> Dict[str, Dict[str, AnalysisResult]]:
    """Back-compat wrapper over :func:`run_suite_report`.

    Returns ``{program name: {flavor: AnalysisResult}}`` and raises on
    the first failure (the pre-fault-isolation contract).
    """
    report = run_suite_report(names, flavors, jobs, schedule, cache,
                              fail_fast=True)
    return report.results


def run_files(paths: Sequence,
              flavors: Sequence[str] = ("insensitive",),
              jobs: Optional[int] = None,
              schedule: str = "batched",
              cache: object = None,
              ) -> List[Tuple[str, Dict[str, AnalysisResult]]]:
    """Back-compat wrapper over :func:`run_files_report`.

    Returns ``[(path, {flavor: AnalysisResult}), ...]`` in input order
    and raises on the first failure.
    """
    report = run_files_report(paths, flavors, jobs, schedule, cache,
                              fail_fast=True)
    return [(o.name, o.results) for o in report.outcomes]
