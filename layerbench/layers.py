"""Per-layer metrics of the traced run.

Reads the span files the traced program processes wrote, joins them to
the driver's op windows (``spans.py``), and turns layer totals into the
per-layer metrics of ``BENCHMARK.json``.  Times, calls and counters
are per timed op; sizes are per call; ratios carry their base in the
printed report.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from spans import LayerTotals, Span, assign_to_ops, layer_totals, nest, \
    reconcile
from tracing import Recorder
from workloads import RunError

#: The traced run fails when more than this share of op wall time is
#: left to no named layer (glue between traced calls, misnesting).
UNATTRIBUTED_TOLERANCE_PCT = 10.0

#: Self time that belongs to no layer of the table.
UNATTRIBUTED = ("unattributed", "runner.worker")

#: Tracing's own cost, counted into ``trace.overhead_pct``.
TRACE_LAYERS = ("trace.setup", "trace.flush")

SOLVERS = ("insensitive", "sensitive", "flowinsensitive")
ENDPOINTS = ("analyze", "check", "query", "slice")
TIERS = ("solution", "summary", "lowering", "cold")
LRU_TIERS = ("solution", "program", "result")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("interp.start_ms", "ms", "lower"),
    ("interp.exit_ms", "ms", "lower"),
    ("import.repro_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.pycparser_ms", "ms", "lower"),
    ("frontend.preprocess.calls", "count", "lower"),
    ("frontend.preprocess.ms", "ms", "lower"),
    ("frontend.cache.load.calls", "count", "lower"),
    ("frontend.cache.load.hit_ratio", "ratio", "higher"),
    ("frontend.cache.load.ms", "ms", "lower"),
    ("frontend.cache.store.calls", "count", "lower"),
    ("frontend.cache.store.ms", "ms", "lower"),
    ("frontend.cache.store.bytes", "bytes", "lower"),
    ("frontend.parser.calls", "count", "lower"),
    ("frontend.parser.ms", "ms", "lower"),
    ("frontend.parser.chars_per_s", "1/s", "higher"),
    ("frontend.lower.calls", "count", "lower"),
    ("frontend.lower.ms", "ms", "lower"),
    ("frontend.lower.vdg_nodes", "count", "lower"),
    *[(f"analysis.{solver}.{metric}", unit, "lower")
      for solver in SOLVERS
      for metric, unit in (("calls", "count"), ("ms", "ms"),
                           ("transfers", "count"), ("meets", "count"),
                           ("decode_calls", "count"),
                           ("kernel_calls", "count"))],
    ("analysis.incremental.calls", "count", "lower"),
    ("analysis.incremental.ms", "ms", "lower"),
    ("analysis.incremental.sccs_resolved", "count", "lower"),
    ("analysis.incremental.summaries_reused", "count", "higher"),
    ("analysis.incremental.replay_ratio", "ratio", "higher"),
    ("analysis.checkers.calls", "count", "lower"),
    ("analysis.checkers.ms", "ms", "lower"),
    ("analysis.checkers.findings", "count", "lower"),
    ("analysis.depgraph.calls", "count", "lower"),
    ("analysis.depgraph.ms", "ms", "lower"),
    ("analysis.depgraph.nodes", "count", "lower"),
    ("analysis.depgraph.edges", "count", "lower"),
    ("analysis.slicing.calls", "count", "lower"),
    ("analysis.slicing.ms", "ms", "lower"),
    ("analysis.slicing.size", "count", "lower"),
    ("analysis.query.ms", "ms", "lower"),
    ("serve.payload.calls", "count", "lower"),
    ("serve.payload.ms", "ms", "lower"),
    ("runner.pool.calls", "count", "lower"),
    ("runner.pool.ms", "ms", "lower"),
    ("runner.pool.wait_ms", "ms", "lower"),
    ("runner.worker_deaths", "count", "lower"),
    ("serve.handle.self_ms", "ms", "lower"),
    *[(f"serve.handle.{endpoint}_ms", "ms", "lower")
      for endpoint in ENDPOINTS],
    *[(f"serve.tier.{tier}", "count", "higher" if tier == "solution"
       else "lower") for tier in TIERS],
    *[(f"serve.lru.{tier}.hit_ratio", "ratio", "higher")
      for tier in LRU_TIERS],
    ("serve.evictions", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.coalesced", "count", "lower"),
    ("serve.http.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("probe_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
]

_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$",
                         re.M)


def importtime_ms(stderr: str, package: str) -> float:
    """Cumulative import time of ``package`` from ``-X importtime``
    output (0 when the process never imported it)."""
    for cumulative_us, name in _IMPORTTIME.findall(stderr):
        if name == package:
            return int(cumulative_us) / 1000.0
    return 0.0


def load_trace(directory: Path) -> Tuple[List[Span], Dict[int, dict]]:
    """Every span and every process header under ``directory``."""
    spans: List[Span] = []
    headers: Dict[int, dict] = {}
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if isinstance(record, dict):
                headers[record["pid"]] = record
            else:
                name, start, end, attrs = record
                spans.append(Span(name, start, end, attrs))
    return spans, headers


def span_cost_ns(scratch: Path, calls: int = 20000) -> float:
    """What one traced call adds over a bare call, measured here."""
    def noop():
        return None

    traced = Recorder(scratch).wrap(noop, "calibrate", None)
    best = []
    for fn in (noop, traced):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter_ns() - start)
    return max(0.0, (best[1] - best[0]) / calls)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


class TraceAnalysis:
    """Op trees and layer totals of one traced run."""

    def __init__(self, ops, trace_dir: Path, cli: bool) -> None:
        spans, self.headers = load_trace(trace_dir)
        windows = [(op.start_ns, op.end_ns) for op in ops]
        grouped = assign_to_ops(windows, spans)
        if cli:
            for op, group in zip(ops, grouped):
                group.extend(self._process_spans(op))
        root = "unattributed" if cli else "serve.http"
        self.trees = [nest(Span("op", op.start_ns, op.end_ns), group)
                      for op, group in zip(ops, grouped)]
        self.layers = layer_totals(self.trees, root)
        self.reconciled = reconcile(self.trees, self.layers, UNATTRIBUTED)

    def _process_spans(self, op) -> List[Span]:
        """A CLI op's interpreter phases, from the launcher's header."""
        h = self.headers.get(op.pid)
        if h is None:
            return []
        return [Span("interp.start", op.start_ns, h["started"]),
                Span("trace.setup", h["started"], h["installed"]),
                Span("import.repro", h["installed"], h["imported"]),
                Span("interp.exit", h["returned"], op.end_ns)]

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name, LayerTotals())

    def endpoint_ms(self, endpoint: str) -> float:
        durations = [span.duration for tree in self.trees
                     for span in tree.spans
                     if span.name == "serve.handle"
                     and span.attrs.get("endpoint") == endpoint]
        return statistics.fmean(durations) / 1e6 if durations else 0.0

    def span_count(self) -> int:
        return sum(len(tree.spans) for tree in self.trees)


def per_layer_metrics(workload, ops, trace: TraceAnalysis, probe_ms: float,
                      scratch: Path) -> Tuple[Dict[str, float], List[str]]:
    """Every :data:`PER_LAYER` metric, and report lines with bases."""
    n = len(ops)
    cli = workload.name == "cli-warm"
    values: Dict[str, float] = {}
    notes: List[str] = []

    def per_op(total: float) -> float:
        return total / n

    def self_ms(name: str) -> float:
        return per_op(trace.layer(name).self_ns) / 1e6

    def calls(name: str) -> float:
        return per_op(trace.layer(name).calls)

    def counter(name: str, key: str) -> float:
        return trace.layer(name).counters.get(key, 0)

    if cli:
        values["interp.start_ms"] = self_ms("interp.start")
        values["import.repro_ms"] = self_ms("import.repro")
        stderrs = [op.stderr.decode(errors="replace") for op in ops]
        for package in ("numpy", "pycparser"):
            values[f"import.{package}_ms"] = statistics.fmean(
                importtime_ms(text, package) for text in stderrs)
    else:
        daemon = workload.daemon
        h = trace.headers.get(daemon.proc.pid)
        if h is None:
            raise RunError("the traced daemon exited without its spans")
        values["interp.start_ms"] = (h["started"] - daemon.spawned_ns) / 1e6
        values["import.repro_ms"] = (h["imported"] - h["installed"]) / 1e6
        text = (workload.ctx.run_dir / "daemon.err").read_text(
            errors="replace")
        for package in ("numpy", "pycparser"):
            values[f"import.{package}_ms"] = importtime_ms(text, package)
    values["interp.exit_ms"] = self_ms("interp.exit")

    values["frontend.preprocess.calls"] = calls("frontend.preprocess")
    values["frontend.preprocess.ms"] = self_ms("frontend.preprocess")
    loads = trace.layer("frontend.cache.load")
    values["frontend.cache.load.calls"] = calls("frontend.cache.load")
    values["frontend.cache.load.hit_ratio"] = _ratio(
        counter("frontend.cache.load", "hits"), loads.calls)
    notes.append(f"frontend.cache.load.hit_ratio = "
                 f"{int(counter('frontend.cache.load', 'hits'))} hits / "
                 f"{loads.calls} loads")
    values["frontend.cache.load.ms"] = self_ms("frontend.cache.load")
    stores = trace.layer("frontend.cache.store")
    values["frontend.cache.store.calls"] = calls("frontend.cache.store")
    values["frontend.cache.store.ms"] = self_ms("frontend.cache.store")
    values["frontend.cache.store.bytes"] = _ratio(
        counter("frontend.cache.store", "bytes"), stores.calls)
    parser = trace.layer("frontend.parser")
    values["frontend.parser.calls"] = calls("frontend.parser")
    values["frontend.parser.ms"] = self_ms("frontend.parser")
    values["frontend.parser.chars_per_s"] = _ratio(
        counter("frontend.parser", "chars"), parser.inclusive_ns / 1e9)
    lower = trace.layer("frontend.lower")
    values["frontend.lower.calls"] = calls("frontend.lower")
    values["frontend.lower.ms"] = self_ms("frontend.lower")
    values["frontend.lower.vdg_nodes"] = _ratio(
        counter("frontend.lower", "vdg_nodes"), lower.calls)

    for solver in SOLVERS:
        name = f"analysis.{solver}"
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.ms"] = self_ms(name)
        for key in ("transfers", "meets", "decode_calls", "kernel_calls"):
            values[f"{name}.{key}"] = per_op(counter(name, key))
    inc = "analysis.incremental"
    values[f"{inc}.calls"] = calls(inc)
    values[f"{inc}.ms"] = self_ms(inc)
    values[f"{inc}.sccs_resolved"] = per_op(counter(inc, "sccs_resolved"))
    values[f"{inc}.summaries_reused"] = per_op(
        counter(inc, "summaries_reused"))
    values[f"{inc}.replay_ratio"] = _ratio(counter(inc, "summaries_reused"),
                                           counter(inc, "scc_total"))
    notes.append(f"{inc}.replay_ratio = "
                 f"{int(counter(inc, 'summaries_reused'))} SCC summaries "
                 f"replayed / {int(counter(inc, 'scc_total'))} SCCs")

    values["analysis.checkers.calls"] = calls("analysis.checkers")
    values["analysis.checkers.ms"] = self_ms("analysis.checkers")
    values["analysis.checkers.findings"] = per_op(
        counter("analysis.checkers", "findings"))
    depgraph = trace.layer("analysis.depgraph")
    values["analysis.depgraph.calls"] = calls("analysis.depgraph")
    values["analysis.depgraph.ms"] = self_ms("analysis.depgraph")
    values["analysis.depgraph.nodes"] = _ratio(
        counter("analysis.depgraph", "nodes"), depgraph.calls)
    values["analysis.depgraph.edges"] = _ratio(
        counter("analysis.depgraph", "edges"), depgraph.calls)
    slicing = trace.layer("analysis.slicing")
    values["analysis.slicing.calls"] = calls("analysis.slicing")
    values["analysis.slicing.ms"] = self_ms("analysis.slicing")
    values["analysis.slicing.size"] = _ratio(
        counter("analysis.slicing", "size"), slicing.calls)
    values["analysis.query.ms"] = self_ms("analysis.query")
    values["serve.payload.calls"] = calls("serve.payload")
    values["serve.payload.ms"] = self_ms("serve.payload")

    pool = trace.layer("runner.pool")
    values["runner.pool.calls"] = calls("runner.pool")
    values["runner.pool.ms"] = per_op(pool.inclusive_ns) / 1e6
    values["runner.pool.wait_ms"] = self_ms("runner.pool")

    before = getattr(workload, "metrics_before", {}) or {}
    after = getattr(workload, "metrics_after", {}) or {}

    def delta(*path: str) -> float:
        def get(doc):
            for key in path:
                doc = doc.get(key, {}) if isinstance(doc, dict) else {}
            return doc if isinstance(doc, (int, float)) else 0
        return get(after) - get(before)

    values["runner.worker_deaths"] = delta("worker_deaths")
    values["serve.handle.self_ms"] = self_ms("serve.handle")
    for endpoint in ENDPOINTS:
        values[f"serve.handle.{endpoint}_ms"] = trace.endpoint_ms(endpoint)
    for tier in TIERS:
        values[f"serve.tier.{tier}"] = sum(1 for op in ops if op.tier == tier)
    for tier in LRU_TIERS:
        hits = delta("caches", tier, "hits")
        lookups = hits + delta("caches", tier, "misses")
        values[f"serve.lru.{tier}.hit_ratio"] = _ratio(hits, lookups)
        notes.append(f"serve.lru.{tier}.hit_ratio = {int(hits)} hits / "
                     f"{int(lookups)} lookups")
    values["serve.evictions"] = sum(delta("caches", tier, "evictions")
                                    for tier in LRU_TIERS)
    for key in ("shed", "timeouts", "coalesced"):
        values[f"serve.{key}"] = delta(key)
    values["serve.http.ms"] = 0.0 if cli else self_ms("serve.http")
    values["cli.self_ms"] = self_ms("cli")
    values["cli.stdout_bytes"] = per_op(sum(op.stdout_bytes for op in ops))
    values["probe_ms"] = probe_ms

    wall = trace.reconciled["wall_ns"]
    overhead = sum(trace.layer(name).self_ns for name in TRACE_LAYERS)
    overhead += trace.span_count() * span_cost_ns(scratch)
    values["trace.overhead_pct"] = 100.0 * overhead / wall
    values["trace.unattributed_pct"] = trace.reconciled["unattributed_pct"]
    notes.append(f"trace: {trace.span_count()} spans over {n} ops, "
                 f"{wall / 1e6:.1f} ms of op wall time; unattributed "
                 f"{trace.reconciled['unattributed_ns'] / 1e6:.1f} ms "
                 f"(tolerance {UNATTRIBUTED_TOLERANCE_PCT:.0f}%)")
    return values, notes


def layer_table(trace: TraceAnalysis, n: int) -> List[str]:
    """Self time per op of every layer seen, largest first."""
    wall = trace.reconciled["wall_ns"] or 1
    lines = [f"{'layer':<28} {'calls/op':>9} {'self ms/op':>11} "
             f"{'share':>7}"]
    for name, totals in sorted(trace.layers.items(),
                               key=lambda item: -item[1].self_ns):
        lines.append(f"{name:<28} {totals.calls / n:>9.2f} "
                     f"{totals.self_ns / n / 1e6:>11.3f} "
                     f"{100.0 * totals.self_ns / wall:>6.1f}%")
    return lines

