"""Span recording inside the traced program: wrappers around the public
entry point of each layer, installed from the benchmark's launcher.

:func:`install` puts an import hook on ``sys.meta_path`` that wraps the
targets of :data:`LAYERS` right after their module executes, before
any importer binds them, so ``from module import function`` call sites
and lazy imports alike reach the wrapper, and nothing is imported
earlier than the program itself would import it.  Forked pool workers
inherit the wrappers; each worker writes its spans whenever its span
stack empties, because the pool can be torn down without running the
worker's exit code.  The launcher process writes its own at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Directory every traced process writes ``<pid>.jsonl`` into.
TRACE_DIR_ENV = "LAYERBENCH_TRACE_DIR"


def _solver_counters(args, kwargs, result) -> Dict[str, object]:
    dense = result.extras.get("dense") or {}
    return {"transfers": result.counters.transfers,
            "meets": result.counters.meets,
            "decode_calls": dense.get("decode_calls", 0),
            "kernel_calls": dense.get("kernel_calls", 0)}


def _incremental_counters(args, kwargs, result) -> Dict[str, object]:
    resolved = reused = total = 0
    for flavor_result in result.values():
        dense = flavor_result.extras.get("dense") or {}
        resolved += dense.get("sccs_resolved", 0)
        reused += dense.get("summaries_reused", 0)
        total += dense.get("summary_scc_total", 0)
    return {"sccs_resolved": resolved, "summaries_reused": reused,
            "scc_total": total}


def _load_counters(args, kwargs, result) -> Dict[str, object]:
    return {"hits": int(result is not None)}


def _store_counters(args, kwargs, result) -> Dict[str, object]:
    cache_dir, key = args[0], args[1]
    try:
        size = os.stat(Path(cache_dir) / f"{key}.pkl").st_size
    except OSError:
        size = 0
    return {"bytes": size}


def _handle_counters(args, kwargs, result) -> Dict[str, object]:
    return {"endpoint": args[1], "status": result[0]}


#: module → [(attribute path, layer name, counter extractor)].
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "repro.frontend.preprocess": [
        ("Preprocessor.process_file", "frontend.preprocess", None),
        ("Preprocessor.process_text", "frontend.preprocess", None)],
    "repro.frontend.cache": [
        ("load_program", "frontend.cache.load", _load_counters),
        ("store_program", "frontend.cache.store", _store_counters)],
    "repro.frontend.parser": [
        ("parse_preprocessed", "frontend.parser",
         lambda a, k, r: {"chars": len(a[0])})],
    "repro.frontend.lower": [
        ("lower_ast", "frontend.lower",
         lambda a, k, r: {"vdg_nodes": r.node_count()})],
    "repro.analysis.insensitive": [
        ("analyze_insensitive", "analysis.insensitive", _solver_counters),
        ("InsensitiveAnalysis.run", "analysis.insensitive",
         _solver_counters)],
    "repro.analysis.sensitive": [
        ("analyze_sensitive", "analysis.sensitive", _solver_counters),
        ("SensitiveAnalysis.run", "analysis.sensitive", _solver_counters)],
    "repro.analysis.flowinsensitive": [
        ("analyze_flowinsensitive", "analysis.flowinsensitive",
         _solver_counters),
        ("FlowInsensitiveAnalysis.run", "analysis.flowinsensitive",
         _solver_counters)],
    "repro.analysis.incremental": [
        ("analyze_incremental", "analysis.incremental",
         _incremental_counters)],
    "repro.analysis.checkers.base": [
        ("run_checkers", "analysis.checkers",
         lambda a, k, r: {"findings": len(r)})],
    "repro.analysis.depgraph": [
        ("build_depgraph", "analysis.depgraph",
         lambda a, k, r: {"nodes": len(r.nodes), "edges": len(r.edges)})],
    "repro.analysis.slicing": [
        ("compute_slice", "analysis.slicing",
         lambda a, k, r: {"size": r.size})],
    "repro.analysis.common": [
        ("AnalysisResult.op_locations", "analysis.query", None)],
    "repro.serve.payload": [
        ("analysis_payload", "serve.payload", None)],
    "repro.serve.core": [
        ("AnalysisService.handle", "serve.handle", _handle_counters)],
    "repro.runner": [
        ("WorkerPool.run", "runner.pool", None),
        # The one function every pool task runs through in the worker;
        # its self time is worker glue that no layer of the table owns.
        ("_guarded", "runner.worker", None)],
}


class Recorder:
    """Spans of one process, kept in memory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.main_pid = os.getpid()
        self.spans: List[list] = []
        self.local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.local = threading.local()

    def wrap(self, fn: Callable, name: str,
             extract: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = recorder.local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.monotonic_ns()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.monotonic_ns()
                local.depth = depth
                attrs = extract(args, kwargs, result) \
                    if returned and extract is not None else None
                recorder.spans.append([name, start, end, attrs or {}])
                if depth == 0 and os.getpid() != recorder.main_pid:
                    recorder.flush()

        return traced

    def flush(self, header: Optional[dict] = None) -> None:
        """Append this process's spans to its file and forget them."""
        start = time.monotonic_ns()
        lines = [json.dumps(header)] if header is not None else []
        lines += [json.dumps(span) for span in self.spans]
        self.spans = []
        path = self.directory / f"{os.getpid()}.jsonl"
        with open(path, "a") as out:
            out.write("\n".join(lines) + "\n")
            out.write(json.dumps(["trace.flush", start,
                                  time.monotonic_ns(), {}]) + "\n")

    def patch(self, module) -> None:
        for path, name, extract in LAYERS.get(module.__name__, ()):
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, extract))


class _PatchingFinder:
    """``sys.meta_path`` entry that patches :data:`LAYERS` modules as
    soon as they have executed."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        if fullname not in LAYERS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        execute = loader.exec_module
        recorder = self.recorder

        def exec_module(module):
            execute(module)
            recorder.patch(module)

        loader.exec_module = exec_module
        return spec


def install(directory: Path) -> Recorder:
    recorder = Recorder(directory)
    sys.meta_path.insert(0, _PatchingFinder(recorder))
    return recorder
