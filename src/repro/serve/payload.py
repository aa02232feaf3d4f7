"""Worker-side rendering of analysis results into JSON-safe payloads.

The serve daemon never ships ``Program`` objects or solutions across
the process-pool pipe — a request's answer is this payload: one
``solution_digest`` per flavor (the cross-process equality handle the
oracle and benchmarks already use), the paper's pair census, the cost
counters, and phase timings.  Because the digest is computed in the
worker from the same solved result the CLI would print, byte-equality
between served digests and fresh CLI runs is the service's correctness
gate (``benchmarks/bench_serve.py`` enforces it).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.common import AnalysisResult, solution_digest

#: Cache tiers, hottest first.  ``solution`` means nothing was solved:
#: a payload-LRU hit in the daemon (no worker involved), or a slice
#: over a dependence graph the worker kept.  The rest are classified
#: from the worker's own results, for every endpoint: ``summary`` when
#: every SCC replayed from the summary store, ``lowering`` when only
#: the frontend cache hit, and ``cold`` when the program was lowered
#: from source.
TIERS = ("solution", "summary", "lowering", "cold")


def analysis_payload(name: str,
                     results: Mapping[str, AnalysisResult],
                     schedule: Optional[str] = None) -> dict:
    """The JSON response body for one analyzed program."""
    from ..analysis.stats import pair_census

    flavors: Dict[str, dict] = {}
    for flavor, result in results.items():
        census = pair_census(result)
        entry = {
            "digest": solution_digest(result),
            "pairs": {
                "pointer": census.pointer,
                "function": census.function,
                "aggregate": census.aggregate,
                "store": census.store,
                "other": census.other,
                "total": census.total,
            },
            "counters": result.counters.as_dict(extended=True),
            "phases": {phase: round(seconds, 6)
                       for phase, seconds in result.phases.items()},
            "elapsed_seconds": round(result.elapsed_seconds, 6),
            "cache": result.cache_status,
        }
        dense = result.extras.get("dense")
        if dense is not None:
            entry["dense"] = dict(dense)
        flavors[flavor] = entry
    return {
        "program": str(name),
        "schedule": schedule,
        "flavors": flavors,
        "tier": worker_tier(flavors),
    }


def worker_tier(flavors: Mapping[str, dict]) -> str:
    """Classify which cache tier satisfied a worker-side solve.

    ``summary`` means the incremental engine replayed every SCC from
    stored summaries for at least one flavor (``sccs_resolved == 0``
    with a nonzero SCC total); ``lowering`` means the frontend cache
    hit but solving ran; ``cold`` means the program was lowered from
    source.  The reported tier is the hottest any flavor achieved —
    flavors share one lowering, so they agree on everything below it.
    """
    best = "cold"
    for entry in flavors.values():
        if entry.get("cache") != "hit":
            continue
        dense = entry.get("dense") or {}
        if (dense.get("summary_scc_total", 0) > 0
                and dense.get("sccs_resolved", 1) == 0):
            return "summary"
        best = "lowering"
    return best


def result_tier(result: AnalysisResult) -> str:
    """:func:`worker_tier` of the one flavor a ``/query`` or
    ``/slice`` solved."""
    return worker_tier({result.flavor: {
        "cache": result.cache_status,
        "dense": result.extras.get("dense")}})


def check_payload(name: str, digests: Mapping[str, str],
                  records, schedule: Optional[str] = None) -> dict:
    """The JSON response body for one checked program.

    Built in the worker from the findings digests and the per-flavor
    count-carrying telemetry records of a ``payload_only`` check: the
    finding lists never leave it.  Those records carry the lowering
    status and the summary counters, so the tier is classified by the
    same :func:`worker_tier` rule as ``/analyze``'s.
    """
    flavors: Dict[str, dict] = {}
    for record in records:
        if record.get("kind") != "check":
            continue
        flavor = record["flavor"]
        flavors[flavor] = {
            "digest": digests.get(flavor),
            "findings": record.get("findings", 0),
            "by_checker": record.get("by_checker", {}),
            "by_severity": record.get("by_severity", {}),
            "elapsed_seconds": record.get("elapsed_seconds"),
            "cache": record.get("cache"),
        }
        if record.get("dense") is not None:
            flavors[flavor]["dense"] = dict(record["dense"])
    return {
        "program": str(name),
        "schedule": schedule,
        "flavors": flavors,
        "tier": worker_tier(flavors),
    }
