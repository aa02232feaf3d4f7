"""Structured run telemetry: machine-readable cost records.

The paper argues its CI-vs-CS verdict through cost accounting —
transfer functions executed, meet operations performed, analysis wall
time (Figure 7) — so the reproduction records exactly those quantities
as first-class data instead of ad-hoc prints.  Every analysis run
(inline, parallel worker, or benchmark) can be rendered as one JSON
record per ``(program, flavor)``; drivers concatenate them into a
JSON-lines stream (``--telemetry PATH`` on the CLI).

Record schema (``schema`` = :data:`SCHEMA_VERSION`):

``kind="analysis"`` records::

    {
      "schema": 1, "kind": "analysis", "status": "ok",
      "program": "anagram", "flavor": "insensitive",
      "schedule": "batched",
      "counters": {"transfers": N, "meets": N, "pairs_added": N,
                   "batches": N},          # Counters.as_dict(extended)
      "phases":   {"preprocess": s, "parse": s, "lower": s, "solve": s},
                   # or {"preprocess": s, "cache_load": s, "solve": s}
                   # frontend phases are program-level (shared by every
                   # flavor of the same program); "solve" is per-flavor
      "elapsed_seconds": s,                # solver wall time
      "cache": "hit" | "miss" | "off",     # lowering-cache outcome
      "worker_pid": 1234,                  # process that ran the solve
      "peak_rss_kb": 45678,                # that process's peak RSS
      "rss_scope": "worker" | "process",   # whose memory that is
      "rss_delta_kb": 123                  # what this task added to it
    }

Records produced through :func:`repro.runner.run` and
:class:`repro.runner.WorkerPool` carry ``rss_scope`` and
``rss_delta_kb``.  ``peak_rss_kb`` is always a process's lifetime
peak, covering every earlier task that process ran: ``"worker"`` means
a pool worker (which runs many tasks in turn), ``"process"`` the
driver that ran the task inline.  Read ``rss_delta_kb`` — growth of
that peak over the pre-task baseline, 0 when the task fit under the
existing high-water mark — for the per-task attribution.

``kind="error"`` records replace ``flavor``/``counters``/``phases``
with an ``error`` object ``{"kind", "message", "traceback"}`` naming
the failing task — a crashed worker still yields one line.

``kind="fuzz"`` records (one per generated program checked by
``repro fuzz``) carry ``seed`` — enough to regenerate the program —
plus oracle ``stats``, the ``violations`` list (empty when
``status="ok"``), the active ``mutation`` if any, and
``shrunk_lines`` for minimized failures.

``kind="check"`` records (one per (program, flavor) pass of ``repro
check``) carry the finding count, per-checker and per-severity
breakdowns, the deterministic finding ``digest``, checker wall time,
and a ``dense`` object with ``decode_calls_before``/``_after`` around
the checker sweep.

``kind="slice"`` records (one per ``repro slice`` computation) carry
the criterion and direction, the slice size / origin count / digest,
the dependence graph's node and per-kind edge counts and digest, and a
``dense`` object with ``decode_calls_before``/``_after`` around graph
construction — the evidence that mem-edge resolution stayed on the
bitset representation.

``kind="serve"`` records (periodic snapshots from ``repro serve``)
carry the daemon's request counters — queue depth, cache hits by tier
(``solution``/``summary``/``lowering`` vs ``cold``), coalesced and
shed request counts, per-tier evictions, and nearest-rank p50/p95
request latencies.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

from .analysis.common import AnalysisResult

#: Bump when a record's field layout changes incompatibly.
SCHEMA_VERSION = 1


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of *this* process in KiB, or ``None``
    where the ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only container
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        rss //= 1024
    return int(rss)


def result_record(program: str, result: AnalysisResult,
                  schedule: Optional[str] = None) -> Dict[str, object]:
    """One ``kind="analysis"`` record for a finished analysis run.

    Counters come straight from ``result.counters.as_dict``; phases
    merge the program-level frontend timings (preprocess/parse/lower or
    cache_load, recorded by :func:`repro.frontend.lower.lower_file`)
    with the solver's own ``solve`` phase.  Runs of the dense bitset
    engine additionally carry a ``"dense"`` object — fact ids
    allocated, total 64-bit bitset words in the solution, translation
    kernel calls and bitset→object decode calls, plus, for runs of the
    incremental engine, its summary counters (see
    :func:`repro.analysis.incremental.analyze_incremental`).  These
    describe the *representation*, not the analysis: unlike the paper
    counters they may vary between processes with differently warmed
    fact tables.
    """
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "analysis",
        "status": "ok",
        "program": str(program),
        "flavor": result.flavor,
        "schedule": schedule,
        "counters": result.counters.as_dict(extended=True),
        "phases": {name: round(seconds, 6)
                   for name, seconds in result.phases.items()},
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "cache": result.cache_status,
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }
    dense = result.extras.get("dense")
    if dense is not None:
        record["dense"] = dict(dense)
    return record


def result_records(program: str,
                   results: Mapping[str, AnalysisResult],
                   schedule: Optional[str] = None
                   ) -> List[Dict[str, object]]:
    """Records for every flavor of one program, in mapping order."""
    return [result_record(program, result, schedule)
            for result in results.values()]


def fuzz_record(outcome, mutation: Optional[str] = None
                ) -> Dict[str, object]:
    """One ``kind="fuzz"`` record for a checked generated program.

    ``outcome`` is a :class:`repro.fuzz.driver.FuzzOutcome`; the record
    carries the seed (sufficient to regenerate the program), the
    oracle's size stats, and — on failure — every violation plus the
    shrunk reproducer's line count.
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fuzz",
        "status": "ok" if outcome.ok else "violation",
        "program": outcome.name,
        "seed": outcome.seed,
        "mutation": mutation,
        "stats": dict(outcome.stats),
        "violations": [{"kind": v.kind, "line": v.line,
                        "detail": v.detail}
                       for v in outcome.violations],
        "shrunk_lines": outcome.shrunk_lines,
        "elapsed_seconds": round(outcome.elapsed_seconds, 6),
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }


def check_record(program: str, flavor: str, findings,
                 elapsed_seconds: float,
                 schedule: Optional[str] = None,
                 dense: Optional[Mapping[str, object]] = None,
                 cache: Optional[str] = None
                 ) -> Dict[str, object]:
    """One ``kind="check"`` record per (program, flavor) checker run.

    Carries the per-checker and per-severity finding counts, the
    witness-free finding digest (the cross-schedule / cross-jobs
    comparison handle), checker wall time, and — when supplied — a
    ``"dense"`` object with the fact table's ``decode_calls`` counter
    before and after the checker sweep, showing how much of the run
    stayed on the bitset representation.  ``cache`` is the *lowering*
    cache status of the checked program; a ``check --flavor all``
    invocation lowers the hazard model once per task, so each flavor's
    record carries the same status — the explicit evidence that
    flavors share one lowering rather than re-lowering per flavor.
    """
    from .analysis.checkers import count_by_checker, findings_digest

    by_severity: Dict[str, int] = {}
    for finding in findings:
        by_severity[finding.severity] = \
            by_severity.get(finding.severity, 0) + 1
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "check",
        "status": "ok",
        "program": str(program),
        "flavor": flavor,
        "schedule": schedule,
        "findings": len(findings),
        "by_checker": count_by_checker(findings),
        "by_severity": by_severity,
        "digest": findings_digest(findings),
        "elapsed_seconds": round(elapsed_seconds, 6),
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }
    if cache is not None:
        record["cache"] = cache
    if dense is not None:
        record["dense"] = dict(dense)
    return record


def slice_record(program: str, flavor: str, slice_dict: Mapping[str, object],
                 graph_stats: Mapping[str, int], graph_digest: str,
                 elapsed_seconds: float,
                 schedule: Optional[str] = None,
                 dense: Optional[Mapping[str, object]] = None,
                 cache: Optional[str] = None) -> Dict[str, object]:
    """One ``kind="slice"`` record per computed slice.

    ``slice_dict`` is ``SliceResult.as_dict()``; ``graph_stats`` /
    ``graph_digest`` describe the dependence graph the slice ran over
    (node count, per-kind edge counts, content digest — the
    cross-schedule / cross-jobs comparison handles).  ``dense`` carries
    the fact table's ``decode_calls`` counter before and after graph
    construction, showing mem-edge resolution stayed mask-level.
    """
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "slice",
        "status": "ok",
        "program": str(program),
        "flavor": flavor,
        "schedule": schedule,
        "criterion": slice_dict["criterion"],
        "direction": slice_dict["direction"],
        "slice_size": slice_dict["size"],
        "slice_origins": len(slice_dict["origins"]),
        "slice_digest": slice_dict["digest"],
        "graph": dict(graph_stats, digest=graph_digest),
        "elapsed_seconds": round(elapsed_seconds, 6),
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }
    if cache is not None:
        record["cache"] = cache
    if dense is not None:
        record["dense"] = dict(dense)
    return record


def percentile(values, fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1]),
    or ``None`` for an empty sample.  Nearest-rank (not interpolated)
    so the reported latency is always one a real request paid."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def serve_record(stats: Mapping[str, object]) -> Dict[str, object]:
    """One ``kind="serve"`` record: a daemon metrics snapshot.

    Written by ``repro serve`` on each request completion batch (and on
    shutdown), carrying the service counters that matter for capacity
    planning — queue depth, per-tier cache hits (``solution`` /
    ``summary`` / ``lowering`` vs ``cold``), coalesced duplicate
    requests, shed (429) requests, eviction counts per LRU tier, and
    nearest-rank p50/p95 request latency.  ``stats`` is
    ``repro.serve.core.Metrics.snapshot()``; the record embeds it
    verbatim under the standard envelope so the JSON-lines stream stays
    self-describing.
    """
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": "serve",
        "status": "ok",
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }
    record.update(stats)
    return record


def error_record(program: str, kind: str, message: str,
                 traceback_text: Optional[str] = None
                 ) -> Dict[str, object]:
    """One ``kind="error"`` record naming a failed task."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "error",
        "status": "error",
        "program": str(program),
        "flavor": None,
        "error": {
            "kind": kind,
            "message": message,
            "traceback": traceback_text,
        },
        "worker_pid": os.getpid(),
        "peak_rss_kb": peak_rss_kb(),
    }


class TelemetryWriter:
    """Writes records as JSON lines to a path (``"-"`` for stdout).

    Usable as a context manager; ``write`` flushes per record so a
    crash mid-run still leaves every completed record on disk.
    """

    def __init__(self, path) -> None:
        self.path = path
        if str(path) == "-":
            self._fh = sys.stdout
            self._owns_fh = False
        else:
            target = Path(path)
            if target.parent != Path(""):
                target.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(target, "w")
            self._owns_fh = True
        self.written = 0

    def write(self, record: Mapping[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.written += 1

    def write_all(self, records: Iterable[Mapping[str, object]]) -> int:
        for record in records:
            self.write(record)
        return self.written

    def close(self) -> None:
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_jsonl(path, records: Iterable[Mapping[str, object]]) -> int:
    """Write ``records`` to ``path`` as JSON lines; returns the count."""
    with TelemetryWriter(path) as writer:
        return writer.write_all(records)


def read_jsonl(path) -> List[Dict[str, object]]:
    """Load a JSON-lines telemetry stream (skipping blank lines)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
