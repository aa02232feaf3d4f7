"""Experiment drivers: one per table/figure in the paper's evaluation.

Each ``figN_rows`` function returns (headers, rows) for the measured
reproduction of that figure over our suite; ``render_experiment`` turns
an experiment id into printable text.  :class:`SuiteRunner` caches the
lowered programs and both analysis results so benches that regenerate
several figures don't re-analyze.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.common import AnalysisResult
from ..analysis.compare import compare_results, spurious_breakdown
from ..analysis.flowinsensitive import analyze_flowinsensitive
from ..analysis.insensitive import analyze_insensitive
from ..analysis.sensitive import analyze_sensitive
from ..analysis.stats import (
    PATH_CATEGORIES,
    REFERENT_CATEGORIES,
    breakdown_percentages,
    indirect_op_stats,
    pair_breakdown,
    pair_census,
    program_sizes,
    pruning_coverage,
    structure_stats,
)
from ..choices import EXPERIMENT_IDS
from ..errors import ReproError
from ..ir.graph import Program
from ..suite.adversarial import load_cs_wins
from ..suite.registry import PROGRAM_NAMES, load_program
from . import paper
from .tables import render_table


class SuiteRunner:
    """Loads and analyzes suite programs once, caching everything.

    ``jobs`` > 1 makes the first access :meth:`prime` the whole suite
    through :func:`repro.runner.run`, fanning program analyses across
    worker processes; later accesses hit the in-memory cache.
    ``cache`` is the persistent lowering cache switch.

    Failures are isolated: with ``fail_fast=False`` (default) a
    program whose worker raises or dies is recorded in :attr:`errors`
    and dropped from :attr:`names`, so the remaining experiments run
    over the survivors; ``fail_fast=True`` restores raise-on-first-
    failure.  Telemetry records for everything analyzed (including
    error records) are available via :meth:`telemetry_records`.
    """

    def __init__(self, names: Optional[Sequence[str]] = None,
                 jobs: Optional[int] = 1,
                 cache: object = True,
                 fail_fast: bool = False,
                 schedule: str = "batched") -> None:
        self.names: List[str] = list(names) if names is not None \
            else list(PROGRAM_NAMES)
        self.jobs = jobs
        self.cache = cache
        self.fail_fast = fail_fast
        self.schedule = schedule
        #: :class:`repro.runner.TaskError` per failed program.
        self.errors: List = []
        self._records: List[dict] = []
        self._primed = False
        self._programs: Dict[str, Program] = {}
        self._ci: Dict[str, AnalysisResult] = {}
        self._cs: Dict[str, AnalysisResult] = {}
        self._fi: Dict[str, AnalysisResult] = {}

    def prime(self) -> None:
        """Analyze every suite program up front, possibly in parallel.

        Each worker ships back its program together with the CI and CS
        results in one message, so the graph the results reference is
        the graph this runner serves from :meth:`program`.  Failed
        programs land in :attr:`errors` and are removed from
        :attr:`names` so later table passes skip them.
        """
        if self._primed:
            return
        self._primed = True
        from ..runner import Request, run

        report = run([Request.build(
            "analyze", name, flavors=("insensitive", "sensitive"),
            schedule=self.schedule, cache=self.cache)
            for name in self.names], jobs=self.jobs,
            fail_fast=self.fail_fast)
        self.errors = report.errors
        self._records = report.records
        for name, by_flavor in report.results.items():
            ci = by_flavor["insensitive"]
            self._programs[name] = ci.program
            self._ci[name] = ci
            self._cs[name] = by_flavor["sensitive"]
        failed = {error.name for error in self.errors}
        if failed:
            self.names = [n for n in self.names if n not in failed]

    def telemetry_records(self) -> List[dict]:
        """Telemetry records for every analyzed program/flavor.

        Parallel runners return the records their workers shipped back
        (one per flavor, plus error records); inline runners render
        records from the cached results on demand.
        """
        if self._want_parallel():
            self.prime()
        if self._primed:
            return list(self._records)
        from ..telemetry import result_records

        records: List[dict] = []
        for name in self.names:
            results = {"insensitive": self.ci(name),
                       "sensitive": self.cs(name)}
            records.extend(result_records(name, results, self.schedule))
        return records

    def _want_parallel(self) -> bool:
        return self.jobs is None or self.jobs > 1

    def program(self, name: str) -> Program:
        if name not in self._programs:
            if self._want_parallel():
                self.prime()
            if name not in self._programs:
                self._programs[name] = load_program(name, cache=self.cache)
        return self._programs[name]

    def ci(self, name: str) -> AnalysisResult:
        if name not in self._ci:
            if self._want_parallel():
                self.prime()
            if name not in self._ci:
                self._ci[name] = analyze_insensitive(
                    self.program(name), schedule=self.schedule)
        return self._ci[name]

    def cs(self, name: str) -> AnalysisResult:
        if name not in self._cs:
            if self._want_parallel():
                self.prime()
            if name not in self._cs:
                self._cs[name] = analyze_sensitive(
                    self.program(name), ci_result=self.ci(name),
                    schedule=self.schedule)
        return self._cs[name]

    def fi(self, name: str) -> AnalysisResult:
        """Flow-insensitive baseline result.

        The parallel primer only ships CI and CS results back from the
        workers, so FI is always computed inline on first use and then
        cached — only the ``slicing`` experiment needs it.
        """
        if name not in self._fi:
            self._fi[name] = analyze_flowinsensitive(
                self.program(name), schedule=self.schedule)
        return self._fi[name]


# ---------------------------------------------------------------------------
# Figure 2: benchmark sizes
# ---------------------------------------------------------------------------


def fig2_rows(runner: SuiteRunner):
    headers = ["name", "lines", "VDG nodes", "alias-related outputs"]
    rows = []
    for name in runner.names:
        sizes = program_sizes(runner.program(name))
        rows.append([name, sizes.source_lines, sizes.vdg_nodes,
                     sizes.alias_related_outputs])
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 3: total context-insensitive pairs by output type
# ---------------------------------------------------------------------------


def fig3_rows(runner: SuiteRunner):
    headers = ["name", "pointer", "function", "aggregate", "store", "total"]
    rows = []
    totals = [0] * 5
    for name in runner.names:
        census = pair_census(runner.ci(name))
        row = [name, census.pointer, census.function, census.aggregate,
               census.store, census.total]
        for i in range(5):
            totals[i] += row[i + 1]
        rows.append(row)
    rows.append(["TOTAL"] + totals)
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 4: indirect memory operation statistics
# ---------------------------------------------------------------------------


def fig4_rows(runner: SuiteRunner):
    headers = ["name", "type", "total", "@1", "@2", "@3", "@4+",
               "max", "avg"]
    rows = []
    totals = {"read": [0] * 6, "write": [0] * 6}
    sums = {"read": 0, "write": 0}
    maxes = {"read": 0, "write": 0}
    for name in runner.names:
        ci = runner.ci(name)
        for kind in ("read", "write"):
            stats = indirect_op_stats(ci, kind)
            rows.append([name, kind, stats.total, stats.one, stats.two,
                         stats.three, stats.four_plus,
                         stats.max_locations, stats.avg])
            bucket = totals[kind]
            bucket[0] += stats.total
            bucket[1] += stats.one
            bucket[2] += stats.two
            bucket[3] += stats.three
            bucket[4] += stats.four_plus
            sums[kind] += stats.sum_locations
            maxes[kind] = max(maxes[kind], stats.max_locations)
    for kind in ("read", "write"):
        bucket = totals[kind]
        avg = sums[kind] / bucket[0] if bucket[0] else 0.0
        rows.append(["TOTAL", kind, bucket[0], bucket[1], bucket[2],
                     bucket[3], bucket[4], maxes[kind], avg])
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 6: context-sensitive pairs and percent spurious
# ---------------------------------------------------------------------------


def fig6_rows(runner: SuiteRunner):
    headers = ["name", "pointer", "function", "aggregate", "store",
               "total", "total (insens.)", "% spurious",
               "indirect ops identical"]
    rows = []
    totals = [0] * 6
    for name in runner.names:
        report = compare_results(runner.ci(name), runner.cs(name))
        census = report.cs_census
        row = [name, census.pointer, census.function, census.aggregate,
               census.store, census.total, report.total_insensitive,
               report.percent_spurious,
               report.indirect_ops_identical]
        for i in range(6):
            totals[i] += row[i + 1]
        rows.append(row)
    overall = (100.0 * (totals[5] - totals[4]) / totals[5]
               if totals[5] else 0.0)
    rows.append(["TOTAL"] + totals + [overall, None])
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 7: pair breakdown by path x referent type
# ---------------------------------------------------------------------------


def fig7_rows(runner: SuiteRunner):
    all_counts: Dict[Tuple[str, str], int] = {}
    spurious_counts: Dict[Tuple[str, str], int] = {}
    for name in runner.names:
        ci, cs = runner.ci(name), runner.cs(name)
        for key, count in pair_breakdown(ci).items():
            all_counts[key] = all_counts.get(key, 0) + count
        for key, count in spurious_breakdown(ci, cs).items():
            spurious_counts[key] = spurious_counts.get(key, 0) + count
    all_pct = breakdown_percentages(all_counts)
    spurious_pct = breakdown_percentages(spurious_counts)
    headers = (["path \\ referent"]
               + [f"all:{r}" for r in REFERENT_CATEGORIES]
               + [f"spurious:{r}" for r in REFERENT_CATEGORIES])
    rows = []
    for path_cat in PATH_CATEGORIES:
        row: List = [path_cat]
        for ref_cat in REFERENT_CATEGORIES:
            row.append(all_pct.get((path_cat, ref_cat), 0.0))
        for ref_cat in REFERENT_CATEGORIES:
            row.append(spurious_pct.get((path_cat, ref_cat), 0.0))
        rows.append(row)
    return headers, rows


# ---------------------------------------------------------------------------
# Run cost accounting (the quantities behind §4.2/§4.3 and Figure 7's
# cost argument), rendered straight from the telemetry records so the
# table and ``--telemetry`` output can never disagree.
# ---------------------------------------------------------------------------


def cost_rows(runner: SuiteRunner):
    headers = ["name", "flavor", "transfers", "meets", "pairs added",
               "batches", "frontend s", "solve s", "cache"]
    rows = []
    totals = {"transfers": 0, "meets": 0, "pairs_added": 0, "batches": 0}
    total_frontend = total_solve = 0.0
    for record in runner.telemetry_records():
        if record.get("kind") != "analysis":
            # Full message is on stderr and in the telemetry stream.
            error = record.get("error", {})
            rows.append([record.get("program"),
                         f"ERROR: {error.get('kind')}",
                         None, None, None, None, None, None, None])
            continue
        counters = record["counters"]
        phases = record["phases"]
        # Frontend phases are program-level (preprocess/parse/lower,
        # or preprocess/cache_load on a hit); "solve" is this flavor's.
        frontend = sum(seconds for phase, seconds in phases.items()
                       if phase != "solve")
        solve = phases.get("solve", record["elapsed_seconds"])
        rows.append([record["program"], record["flavor"],
                     counters["transfers"], counters["meets"],
                     counters["pairs_added"], counters.get("batches"),
                     round(frontend, 4), round(solve, 4),
                     record["cache"]])
        for key in totals:
            totals[key] += counters.get(key) or 0
        total_frontend += frontend
        total_solve += solve
    rows.append(["TOTAL", None, totals["transfers"], totals["meets"],
                 totals["pairs_added"], totals["batches"],
                 round(total_frontend, 4), round(total_solve, 4), None])
    return headers, rows


# ---------------------------------------------------------------------------
# §4.2: pruning coverage
# ---------------------------------------------------------------------------


def opt42_rows(runner: SuiteRunner):
    headers = ["name", "indirect ops", "single-location",
               "% single", "% reads needing assumptions",
               "% writes needing assumptions"]
    rows = []
    agg_total = agg_single = 0
    agg_reads = agg_reads_need = agg_writes = agg_writes_need = 0
    for name in runner.names:
        cov = pruning_coverage(runner.ci(name))
        rows.append([name, cov.indirect_total, cov.single_location,
                     100.0 * cov.single_location_fraction,
                     100.0 * cov.reads_fraction,
                     100.0 * cov.writes_fraction])
        agg_total += cov.indirect_total
        agg_single += cov.single_location
        agg_reads += cov.reads_total
        agg_reads_need += cov.reads_needing_assumptions
        agg_writes += cov.writes_total
        agg_writes_need += cov.writes_needing_assumptions
    rows.append([
        "TOTAL", agg_total, agg_single,
        100.0 * agg_single / agg_total if agg_total else 0.0,
        100.0 * agg_reads_need / agg_reads if agg_reads else 0.0,
        100.0 * agg_writes_need / agg_writes if agg_writes else 0.0,
    ])
    return headers, rows


# ---------------------------------------------------------------------------
# §4.2/§4.3: cost of context-sensitivity
# ---------------------------------------------------------------------------


def perf_rows(runner: SuiteRunner):
    headers = ["name", "CI transfers", "CS transfers", "transfer ratio",
               "CI meets", "CS meets", "meet ratio",
               "CI seconds", "CS seconds", "slowdown"]
    rows = []
    for name in runner.names:
        ci, cs = runner.ci(name), runner.cs(name)
        t_ratio = (cs.counters.transfers / ci.counters.transfers
                   if ci.counters.transfers else 0.0)
        m_ratio = (cs.counters.meets / ci.counters.meets
                   if ci.counters.meets else 0.0)
        slowdown = (cs.elapsed_seconds / ci.elapsed_seconds
                    if ci.elapsed_seconds else 0.0)
        rows.append([name, ci.counters.transfers, cs.counters.transfers,
                     t_ratio, ci.counters.meets, cs.counters.meets,
                     m_ratio, round(ci.elapsed_seconds, 4),
                     round(cs.elapsed_seconds, 4), slowdown])
    return headers, rows


# ---------------------------------------------------------------------------
# §5.1.2: benchmark structure (call-graph sparsity, pointer nesting)
# ---------------------------------------------------------------------------


def struct51_rows(runner: SuiteRunner):
    headers = ["name", "procedures", "called", "call edges",
               "avg callers", "% single caller", "pointer pairs",
               "% multi-level"]
    rows = []
    agg_edges = agg_called = agg_single = 0
    agg_pairs = agg_multi = 0
    for name in runner.names:
        stats = structure_stats(runner.ci(name))
        rows.append([name, stats.procedures, stats.called_procedures,
                     stats.call_edges, stats.avg_callers,
                     100.0 * stats.single_caller_fraction,
                     stats.value_pairs,
                     100.0 * stats.multi_level_fraction])
        agg_edges += stats.call_edges
        agg_called += stats.called_procedures
        agg_single += stats.single_caller
        agg_pairs += stats.value_pairs
        agg_multi += stats.multi_level_pairs
    rows.append([
        "TOTAL", None, agg_called, agg_edges,
        agg_edges / agg_called if agg_called else 0.0,
        100.0 * agg_single / agg_called if agg_called else 0.0,
        agg_pairs,
        100.0 * agg_multi / agg_pairs if agg_pairs else 0.0,
    ])
    return headers, rows


# ---------------------------------------------------------------------------
# §5 ablation: programs where context-sensitivity wins
# ---------------------------------------------------------------------------


def gap_rows(site_counts: Sequence[int] = (2, 4, 8, 16, 32)):
    headers = ["call sites", "CI avg locations/deref",
               "CS avg locations/deref", "CI spurious pairs",
               "precision gap (x)"]
    rows = []
    for n in site_counts:
        program = load_cs_wins(n)
        ci = analyze_insensitive(program)
        cs = analyze_sensitive(program, ci_result=ci)
        report = compare_results(ci, cs)
        ci_stats = indirect_op_stats(ci, "write")
        cs_stats = indirect_op_stats(cs, "write")
        gap = (ci_stats.avg / cs_stats.avg) if cs_stats.avg else 0.0
        rows.append([n, ci_stats.avg, cs_stats.avg,
                     report.spurious_pairs, gap])
    return headers, rows


# ---------------------------------------------------------------------------
# Checker clients: per-benchmark finding counts, CI vs CS vs FI
# ---------------------------------------------------------------------------


def checkers_rows(runner: SuiteRunner):
    """Bug-report counts per benchmark under each analysis flavor.

    This is Ruf's question asked of concrete bug reports instead of
    pair counts: a CI column equal to the CS column means context
    sensitivity changed *nothing a checker user would see*; the FI
    column shows what flow-insensitivity would cost.  The programs are
    re-lowered under the hazard model (``<null>``/``<uninit>`` cells),
    so this experiment runs its own ``check`` requests rather than
    reusing the runner's cached (hazard-free) results.
    """
    from ..analysis.checkers import CHECKER_IDS, count_by_checker
    from ..runner import FLAVORS, Request, run

    report = run([Request.build(
        "check", name, flavors=FLAVORS, schedule=runner.schedule,
        cache=runner.cache) for name in runner.names], jobs=runner.jobs,
        fail_fast=runner.fail_fast)
    runner.errors.extend(report.errors)

    headers = (["name"] + [f"CI {c}" for c in CHECKER_IDS]
               + ["CI total", "CS total", "FI total",
                  "CI extra vs CS", "FI extra vs CI"])
    rows = []
    width = len(CHECKER_IDS) + 5
    totals = [0] * width
    for outcome in report.outcomes:
        if not outcome.ok:
            rows.append([outcome.name, f"ERROR: {outcome.error.kind}"]
                        + [None] * (width - 1))
            continue
        ci_counts = count_by_checker(outcome.findings["insensitive"])
        ci = sum(ci_counts.values())
        cs = len(outcome.findings["sensitive"])
        fi = len(outcome.findings["flowinsensitive"])
        row = ([outcome.name] + [ci_counts[c] for c in CHECKER_IDS]
               + [ci, cs, fi, ci - cs, fi - ci])
        for i in range(width):
            totals[i] += row[i + 1]
        rows.append(row)
    rows.append(["TOTAL"] + totals)
    return headers, rows


# ---------------------------------------------------------------------------
# Slicing client: average backward slice size, CI vs CS vs FI
# ---------------------------------------------------------------------------


def _mean_backward_slice(graph) -> Tuple[int, int]:
    """(lookup count, summed backward-slice size) over every pointer
    read in ``graph`` — a plain reachability count, no digests."""
    lookups = [key for key, (_, kind, _) in graph.nodes.items()
               if kind == "lookup"]
    total = 0
    for root in lookups:
        seen = {root}
        work = [root]
        while work:
            key = work.pop()
            for neighbour, _ in graph.neighbours(key, "backward"):
                if neighbour not in seen:
                    seen.add(neighbour)
                    work.append(neighbour)
        total += len(seen)
    return len(lookups), total


def slicing_rows(runner: SuiteRunner):
    """Average backward slice size per pointer read, CI vs CS vs FI.

    Slices are the checker-facing consumer of alias precision: a
    spurious points-to pair only matters here if it drags extra
    definitions into some read's backward slice.  Matching CI and CS
    columns are Ruf's result restated for program slicing; the FI
    column shows what a flow-insensitive solution would cost the same
    client.
    """
    from ..analysis.depgraph import build_depgraph

    headers = ["name", "lookups", "CI edges", "CI avg slice",
               "CS avg slice", "FI avg slice", "FI growth %"]
    rows = []
    agg_lookups = 0
    agg = {"ci": 0, "cs": 0, "fi": 0}
    agg_edges = 0
    for name in runner.names:
        graphs = {"ci": build_depgraph(runner.ci(name)),
                  "cs": build_depgraph(runner.cs(name)),
                  "fi": build_depgraph(runner.fi(name))}
        sums = {}
        lookups = 0
        for flavor, graph in graphs.items():
            count, total = _mean_backward_slice(graph)
            sums[flavor] = total
            lookups = max(lookups, count)
        avgs = {flavor: (sums[flavor] / lookups if lookups else 0.0)
                for flavor in sums}
        growth = (100.0 * (avgs["fi"] - avgs["ci"]) / avgs["ci"]
                  if avgs["ci"] else 0.0)
        edges = graphs["ci"].stats()["edges"]
        rows.append([name, lookups, edges, avgs["ci"], avgs["cs"],
                     avgs["fi"], growth])
        agg_lookups += lookups
        agg_edges += edges
        for flavor in agg:
            agg[flavor] += sums[flavor]
    overall = {flavor: (agg[flavor] / agg_lookups if agg_lookups else 0.0)
               for flavor in agg}
    overall_growth = (100.0 * (overall["fi"] - overall["ci"])
                      / overall["ci"] if overall["ci"] else 0.0)
    rows.append(["TOTAL", agg_lookups, agg_edges, overall["ci"],
                 overall["cs"], overall["fi"], overall_growth])
    return headers, rows


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_TITLES = {
    "fig2": "Figure 2: benchmark programs and their sizes",
    "fig3": "Figure 3: total points-to pairs (context-insensitive)",
    "fig4": "Figure 4: locations referenced by indirect reads/writes",
    "fig6": "Figure 6: context-sensitive pairs and spurious fraction",
    "fig7": "Figure 7: pairs by path type x referent type (percent)",
    "cost": "Figure 7 accounting: analysis cost (operation counts and "
            "phase times, from telemetry records)",
    "opt42": "Section 4.2: CI-based pruning coverage",
    "perf43": "Sections 4.2/4.3: cost of context-sensitivity",
    "struct51": "Section 5.1.2: benchmark structure (call-graph "
                "sparsity, pointer nesting)",
    "gap": "Section 5 ablation: constructed programs where CS wins",
    "checkers": "Section 6 extension: checker-client bug-report counts "
                "per benchmark, CI vs CS vs FI (hazard-model lowering)",
    "slicing": "Section 6 extension: average backward slice size per "
               "pointer read, CI vs CS vs FI dependence graphs",
}


def experiment_rows(experiment_id: str,
                    runner: Optional[SuiteRunner] = None):
    """(headers, rows) for one experiment by id."""
    if experiment_id not in EXPERIMENT_IDS:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; expected one of "
            f"{', '.join(EXPERIMENT_IDS)}")
    if experiment_id == "gap":
        return gap_rows()
    if runner is None:
        runner = SuiteRunner()
    return {
        "fig2": fig2_rows,
        "fig3": fig3_rows,
        "fig4": fig4_rows,
        "fig6": fig6_rows,
        "fig7": fig7_rows,
        "cost": cost_rows,
        "opt42": opt42_rows,
        "perf43": perf_rows,
        "struct51": struct51_rows,
        "checkers": checkers_rows,
        "slicing": slicing_rows,
    }[experiment_id](runner)


def render_experiment(experiment_id: str,
                      runner: Optional[SuiteRunner] = None) -> str:
    """Run one experiment by id and render its table as plain text."""
    headers, rows = experiment_rows(experiment_id, runner)
    return render_table(headers, rows, title=_TITLES[experiment_id])


def render_experiment_markdown(experiment_id: str,
                               runner: Optional[SuiteRunner] = None) -> str:
    """Run one experiment and render a markdown section."""
    from .tables import render_markdown

    headers, rows = experiment_rows(experiment_id, runner)
    return (f"## {_TITLES[experiment_id]}\n\n"
            + render_markdown(headers, rows))
