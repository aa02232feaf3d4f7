"""Differential soundness checker.

For one program the oracle establishes, memory operation by memory
operation, the inclusion lattice the paper's claims rest on:

    concrete ⊆ CS ⊆ CI ⊆ flow-insensitive

* **CS ⊆ CI ⊆ FI** is checked per *node*: the three analyses run over
  the same lowered :class:`~repro.ir.graph.Program`, so their
  ``op_locations`` sets share interned :class:`AccessPath` identities
  and plain set inclusion is exact.
* **concrete ⊆ CS** is checked per *source line*: the interpreter and
  the lowering parse the same text through the same frontend, so a
  recorded access at ``(line, kind)`` must be covered by the union of
  the CS ``op_locations`` of the lookups/updates lowered from that
  line.  Coverage is segment-wise: same base label, and one operator
  path a prefix of the other (the lowering may expand an aggregate
  copy field-wise, or keep it whole — both directions are sound).
  Note the abstract side includes *direct* operations too: a
  syntactic dereference whose pointer is register-bound constant-folds
  to a direct op, and its referent set still must cover the concrete
  access.

On top of the lattice the oracle asserts determinism — the batched
and FIFO solvers must reach byte-identical solutions — and
re-checks each solution with the declarative fixpoint verifier.  A
checker leg re-lowers the program under the hazard model and holds the
bug checkers to the same standard: schedule-stable finding digests,
and a same-line finding for every concrete null-dereference or
uninitialized-read trap, under CI and CS alike; the dead-store pass's
one walk must also find exactly the dead set the per-read walks do.  The
separate :func:`deep_checks` entry (used by the CLI every N-th
program) additionally crosses process and cache boundaries: analyses
fanned out with ``--jobs 2`` and lowerings replayed through a
cache miss/hit cycle must digest identically.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.common import AnalysisResult, solution_digest
from ..analysis.flowinsensitive import analyze_flowinsensitive
from ..analysis.insensitive import analyze_insensitive
from ..analysis.sensitive import analyze_sensitive
from ..analysis.verify import verify_solution
from ..frontend.cache import caching_disabled, forget_loaded
from ..frontend.pipeline import lower_file, lower_source
from ..ir.nodes import LookupNode, UpdateNode
from .concrete import ConcreteTrap, interpret_source

#: Abstract access rendering: (base label, operator renderings).
Rendered = Tuple[str, Tuple[str, ...]]


@dataclass
class Violation:
    """One failed soundness/determinism obligation."""

    kind: str        # "lattice" | "concrete" | "determinism" | "fixpoint"
                     # | "trap" | "error" | "checker" | "slice"
    detail: str
    line: Optional[int] = None

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"[{self.kind}]{where} {self.detail}"


@dataclass
class CheckReport:
    """Everything one program's differential check produced."""

    name: str
    violations: List[Violation] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def signature(self) -> frozenset:
        """Which obligation kinds failed — the shrinker preserves this."""
        return frozenset(v.kind for v in self.violations)


def _origin_line(node) -> Optional[int]:
    origin = getattr(node, "origin", None)
    if not origin:
        return None
    tail = origin.rsplit(":", 1)[-1]
    return int(tail) if tail.isdigit() else None


def _render_paths(paths) -> Set[Rendered]:
    rendered = set()
    for path in paths:
        if path.base is None:  # pragma: no cover - referents are based
            continue
        rendered.add((path.base.describe(),
                      tuple(repr(op) for op in path.ops)))
    return rendered


def _covered(concrete: Rendered, abstract: Set[Rendered]) -> bool:
    c_label, c_ops = concrete
    for a_label, a_ops in abstract:
        if a_label != c_label:
            continue
        shorter = min(len(a_ops), len(c_ops))
        if a_ops[:shorter] == c_ops[:shorter]:
            return True
    return False


#: Trap classification → the checker that must have predicted it.
def _trap_hazard(trap: ConcreteTrap) -> Optional[str]:
    message = str(trap)
    if message.startswith("uninitialized read"):
        return "uninit"
    if "non-pointer" in message:   # *p / p-> where p is null (or junk)
        return "nullderef"
    return None


def check_program(source: str, name: str = "<fuzz>", *,
                  schedules: bool = True,
                  fixpoint: bool = True,
                  checkers: bool = True,
                  slices: bool = True,
                  summaries: bool = False,
                  expect_trap: Optional[str] = None,
                  step_budget: Optional[int] = None) -> CheckReport:
    """Run the full differential check on one C source text.

    ``expect_trap`` flips the concrete leg's contract for mutated
    programs: instead of treating a :class:`ConcreteTrap` as a
    generator bug, the named hazard (``"uninit"``/``"nullderef"``)
    *must* occur — and the checker leg must cover it (see below).

    ``checkers=True`` adds the checker-client oracle: the program is
    re-lowered under the hazard model, the bug checkers sweep the CI
    and CS results, finding digests must agree across the batched and
    FIFO schedules, and any concrete null-dereference or
    uninitialized-read trap must be covered by a same-line finding of
    the matching checker under *both* flavors — a missed concrete
    hazard is a hard soundness failure (kind ``"checker"``).  Under
    both flavors the dead stores must also equal
    :func:`reference_dead_stores` (kind ``"checker"``).

    ``slices=True`` adds the dependence-graph oracle: the concrete
    interpreter's def→use flows (the line that last wrote a cell → a
    pointer read of it) must each be covered by a ``mem`` edge of the
    CI dependence graph between those lines, and the graph digest must
    agree across the batched and FIFO schedules (kind ``"slice"``).
    Flows whose endpoints lower to sparse SSA edges rather than store
    operations are skipped — only flows with an update node at the def
    line and a lookup node at the use line are obligations.

    ``summaries=True`` adds the summary-equivalence leg: against a
    private cache directory, a cold incremental run must populate the
    summary store, a second run over a fresh lowering must fully
    replay (``sccs_resolved == 0``), and a third run after evicting
    one persisted CI entry must recover — all three digest-identical
    to the whole-program CI/CS/FI solutions (kind ``"summary"``).
    Under ``REPRO_NO_CACHE`` nothing persists, so the second run must
    re-solve every SCC instead.
    """
    report = CheckReport(name=name)
    # simplify=False: the simplifier deletes dead lookups, which would
    # leave concretely-executed reads with no abstract counterpart.
    program = lower_source(source, name=name, simplify=False)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    report.stats["nodes"] = program.node_count()
    report.stats["functions"] = len(program.functions)

    # -- CS ⊆ CI ⊆ FI, per memory operation ------------------------------
    op_count = 0
    indirect_count = 0
    line_map: Dict[Tuple[int, str], Set[Rendered]] = {}
    line_ops: Dict[Tuple[int, str], int] = {}
    for graph in program.functions.values():
        for node in graph.memory_operations():
            op_count += 1
            if node.is_indirect:
                indirect_count += 1
            cs_locs = cs.op_locations(node)
            ci_locs = ci.op_locations(node)
            fi_locs = fi.op_locations(node)
            if not cs_locs <= ci_locs:
                extra = ", ".join(sorted(repr(p) for p in cs_locs - ci_locs))
                report.violations.append(Violation(
                    "lattice", f"CS ⊄ CI at {graph.name}:{node!r}: "
                    f"CS-only locations {{{extra}}}", _origin_line(node)))
            if not ci_locs <= fi_locs:
                extra = ", ".join(sorted(repr(p) for p in ci_locs - fi_locs))
                report.violations.append(Violation(
                    "lattice", f"CI ⊄ FI at {graph.name}:{node!r}: "
                    f"CI-only locations {{{extra}}}", _origin_line(node)))
            line = _origin_line(node)
            if line is not None:
                kind = "read" if isinstance(node, LookupNode) else "write"
                key = (line, kind)
                line_map.setdefault(key, set()).update(
                    _render_paths(cs_locs))
                line_ops[key] = line_ops.get(key, 0) + 1
    report.stats["memory_ops"] = op_count
    report.stats["indirect_ops"] = indirect_count

    # -- concrete ⊆ CS, per source line ----------------------------------
    trap: Optional[ConcreteTrap] = None
    try:
        kwargs = {} if step_budget is None else {"step_budget": step_budget}
        trace = interpret_source(source, name=name, **kwargs)
    except ConcreteTrap as caught:
        trap = caught
        trace = None
        if expect_trap is None:
            report.violations.append(Violation(
                "trap", f"concrete execution trapped: {trap}",
                trap.line))
    if expect_trap is not None:
        if trap is None:
            report.violations.append(Violation(
                "trap", f"expected a concrete {expect_trap} trap but "
                "execution completed cleanly"))
        elif _trap_hazard(trap) != expect_trap:
            report.violations.append(Violation(
                "trap", f"expected a concrete {expect_trap} trap but "
                f"got: {trap}", trap.line))
    if trace is not None:
        report.stats["concrete_steps"] = trace.steps
        report.stats["concrete_accesses"] = trace.total_accesses()
        report.stats["concrete_calls"] = trace.calls
        for (line, kind), accesses in sorted(trace.accesses.items()):
            abstract = line_map.get((line, kind), set())
            if not line_ops.get((line, kind)):
                sample = ", ".join(sorted(l + "".join(o)
                                          for l, o in accesses))
                report.violations.append(Violation(
                    "concrete", f"executed a pointer {kind} with no "
                    f"lowered memory operation (touched {{{sample}}})",
                    line))
                continue
            for access in sorted(accesses):
                if not _covered(access, abstract):
                    have = ", ".join(sorted(l + "".join(o)
                                            for l, o in abstract)) or "∅"
                    report.violations.append(Violation(
                        "concrete",
                        f"concrete {kind} touched "
                        f"{access[0] + ''.join(access[1])!r} but CS "
                        f"op_locations only cover {{{have}}}", line))

    # -- schedule determinism --------------------------------------------
    report.digests["ci"] = solution_digest(ci)
    report.digests["cs"] = solution_digest(cs)
    report.digests["fi"] = solution_digest(fi)
    if schedules:
        ci_alt = analyze_insensitive(program, schedule="fifo")
        cs_alt = analyze_sensitive(program, ci_result=ci_alt,
                                   schedule="fifo")
        fi_alt = analyze_flowinsensitive(program, schedule="fifo")
        for flavor, alt in (("ci", ci_alt), ("cs", cs_alt),
                            ("fi", fi_alt)):
            digest = solution_digest(alt)
            if digest != report.digests[flavor]:
                report.violations.append(Violation(
                    "determinism",
                    f"{flavor.upper()} solution differs between "
                    f"batched ({report.digests[flavor][:12]}…) and "
                    f"fifo ({digest[:12]}…) schedules"))

    # -- independent fixpoint re-check -----------------------------------
    if fixpoint:
        for flavor, result in (("CI", ci), ("CS", cs)):
            for violation in verify_solution(result):
                report.violations.append(Violation(
                    "fixpoint", f"{flavor}: {violation}"))

    # -- slice soundness: concrete flows ⊆ dependence mem edges ----------
    if slices:
        _check_slices(program, ci, trace, report, schedules=schedules)

    # -- summary-based solving must reproduce whole-program solving ------
    if summaries:
        _check_summaries(source, name, report)

    # -- checker clients over the hazard-model lowering ------------------
    if checkers:
        _check_checkers(source, name, report, trap, trace,
                        schedules=schedules)
    return report


def _check_slices(program, ci: AnalysisResult, trace,
                  report: CheckReport, schedules: bool = True) -> None:
    """The dependence-graph oracle leg (see :func:`check_program`).

    A concrete flow ``(def_line, use_line)`` obligates a ``mem`` edge
    between *some* update node at the def line and *some* lookup node
    at the use line.  The defining write concretely reached the read —
    no intervening write overwrote the cell — so a correct analysis
    cannot have strongly killed that definition, and the alias test
    between the update's written paths and the lookup's footprint must
    succeed (both cover the same concrete storage).  Either an unsound
    strong update or a broken alias test in the graph builder (the
    ``drop-alias-deps`` mutation) breaks the edge and is reported.
    """
    from ..analysis.depgraph import build_depgraph

    graph = build_depgraph(ci)
    report.digests["depgraph"] = graph.digest()
    report.stats["depgraph_edges"] = len(graph.edges)

    def tail_line(origin: str) -> Optional[int]:
        tail = origin.rsplit(":", 1)[-1]
        return int(tail) if tail.isdigit() else None

    updates_at: Dict[int, Set[str]] = {}
    lookups_at: Dict[int, Set[str]] = {}
    for key, (_, kind, origin) in graph.nodes.items():
        if not origin or kind not in ("update", "lookup"):
            continue
        line = tail_line(origin)
        if line is None:
            continue
        bucket = updates_at if kind == "update" else lookups_at
        bucket.setdefault(line, set()).add(key)
    mem_pairs = {(src, dst) for src, dst, kind in graph.edges
                 if kind == "mem"}

    checked = 0
    for def_line, use_line in sorted(trace.flows if trace else ()):
        updates = updates_at.get(def_line)
        lookups = lookups_at.get(use_line)
        if not updates or not lookups:
            continue     # lowered as sparse SSA edges, not store ops
        checked += 1
        if not any((u, l) in mem_pairs
                   for u in updates for l in lookups):
            report.violations.append(Violation(
                "slice",
                f"concrete value flow from the line-{def_line} write "
                f"to the line-{use_line} read has no mem dependence "
                f"edge", use_line))
    report.stats["slice_flows_checked"] = checked

    if schedules:
        alt = build_depgraph(analyze_insensitive(program, schedule="fifo"))
        digest = alt.digest()
        if digest != report.digests["depgraph"]:
            report.violations.append(Violation(
                "slice",
                f"dependence graph differs between batched "
                f"({report.digests['depgraph'][:12]}…) and fifo "
                f"({digest[:12]}…) schedules"))


#: (incremental flavor name, report digest key) for the summary leg.
_SUMMARY_FLAVORS = (("insensitive", "ci"), ("sensitive", "cs"),
                    ("flowinsensitive", "fi"))


def _check_summaries(source: str, name: str, report: CheckReport) -> None:
    """The summary-equivalence oracle leg (see :func:`check_program`).

    Exercises all three store regimes against a throwaway cache:
    cold populate, full replay from a *fresh* lowering (proving the
    structural serialization round-trips across program objects), and
    recovery after evicting one persisted CI entry (the partial /
    fallback path).  Every run must be digest-identical to the
    whole-program baseline already recorded in ``report.digests``.
    The ``REPRO_NO_CACHE`` opt-out overrides the throwaway cache, so
    under it the replay leg must re-solve every SCC.
    """
    import glob
    import os
    import tempfile

    from ..analysis.incremental import analyze_incremental

    replays = not caching_disabled()

    def run_and_compare(cache_dir: str, leg: str,
                        expect_replay: bool = False) -> None:
        program = lower_source(source, name=name, simplify=False)
        results = analyze_incremental(program, cache=cache_dir)
        for flavor, short in _SUMMARY_FLAVORS:
            digest = solution_digest(results[flavor])
            if digest != report.digests[short]:
                report.violations.append(Violation(
                    "summary",
                    f"{short.upper()} summary-composed solution "
                    f"({leg}) differs from whole-program solving "
                    f"({digest[:12]}… vs "
                    f"{report.digests[short][:12]}…)"))
            dense = results[flavor].extras.get("dense", {})
            if not expect_replay:
                continue
            resolved = dense.get("sccs_resolved")
            if replays and resolved != 0:
                report.violations.append(Violation(
                    "summary",
                    f"{short.upper()} re-run over an unchanged program "
                    f"re-solved {resolved} SCC(s) instead of replaying"))
            elif not replays and resolved != dense.get("summary_scc_total"):
                report.violations.append(Violation(
                    "summary",
                    f"{short.upper()} re-run with caching disabled "
                    f"re-solved {resolved} of "
                    f"{dense.get('summary_scc_total')} SCC(s)"))

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-sum-") as tmp:
        run_and_compare(tmp, "cold")
        run_and_compare(tmp, "replay", expect_replay=True)
        entries = sorted(glob.glob(
            os.path.join(tmp, "summaries", "insensitive-*.pkl")))
        if entries:
            os.unlink(entries[len(entries) // 2])
        run_and_compare(tmp, "after eviction")


def _covers_trap(findings, hazard: str, line: Optional[int]) -> bool:
    return any(f.checker == hazard
               and (line is None or f.line == line)
               for f in findings)


def reference_dead_stores(result: AnalysisResult) -> List[UpdateNode]:
    """The dead set :func:`~repro.analysis.clients.deadstore.
    find_dead_stores` must report, built from each read's own
    reaching-definitions walk: every update with a target that no
    read observes, in program order."""
    from ..analysis.depgraph import ReachingDefs

    engine = ReachingDefs(result, call_site_sensitive=False)
    nodes = [node for graph in result.program.functions.values()
             for node in graph.nodes]
    observed = set()
    for node in nodes:
        if isinstance(node, LookupNode):
            observed |= engine.reaching_definitions(node)
    solution = result.solution
    return [node for node in nodes
            if isinstance(node, UpdateNode) and node not in observed
            and solution.op_targets_mask(node)]


def _check_checkers(source: str, name: str, report: CheckReport,
                    trap: Optional[ConcreteTrap], trace,
                    schedules: bool = True) -> None:
    """The checker-client oracle leg (see :func:`check_program`)."""
    from ..analysis.checkers import findings_digest, run_checkers
    from ..analysis.clients import deadstore

    program = lower_source(source, name=name, simplify=False,
                           hazard_model=True)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    findings = {"ci": run_checkers(ci), "cs": run_checkers(cs)}
    digests = {flavor: findings_digest(found)
               for flavor, found in findings.items()}
    report.digests["check_ci"] = digests["ci"]
    report.digests["check_cs"] = digests["cs"]
    report.stats["checker_findings_ci"] = len(findings["ci"])
    report.stats["checker_findings_cs"] = len(findings["cs"])

    for flavor, result in (("ci", ci), ("cs", cs)):
        dead = deadstore.find_dead_stores(result).dead
        expected = reference_dead_stores(result)
        if dead != expected:
            report.violations.append(Violation(
                "checker",
                f"{flavor.upper()} dead stores from one walk "
                f"({len(dead)}) differ from the per-read walks' "
                f"({len(expected)})"))

    if schedules:
        ci_alt = analyze_insensitive(program, schedule="fifo")
        cs_alt = analyze_sensitive(program, ci_result=ci_alt,
                                   schedule="fifo")
        for flavor, alt in (("ci", ci_alt), ("cs", cs_alt)):
            digest = findings_digest(run_checkers(alt))
            if digest != digests[flavor]:
                report.violations.append(Violation(
                    "checker",
                    f"{flavor.upper()} findings differ between "
                    f"batched ({digests[flavor][:12]}…) and fifo "
                    f"({digest[:12]}…) schedules"))

    # A concrete hazard the analysis-side checkers did not predict is
    # unsoundness, under the stripped CS result just as under CI.
    hazard = _trap_hazard(trap) if trap is not None else None
    if hazard is not None:
        for flavor in ("ci", "cs"):
            if not _covers_trap(findings[flavor], hazard, trap.line):
                report.violations.append(Violation(
                    "checker",
                    f"concrete {hazard} trap ({trap}) has no covering "
                    f"{hazard} finding under {flavor.upper()}",
                    trap.line))

    # Label CI findings against the one concrete path we have: a
    # finding matching the observed trap is a confirmed true positive;
    # on a clean run every finding is (for this input) a false alarm.
    observed = {(hazard, trap.line)} if hazard is not None else set()
    true_pos = sum(1 for f in findings["ci"]
                   if (f.checker, f.line) in observed)
    report.stats["checker_true_positives"] = true_pos
    if trace is not None or hazard is not None:
        report.stats["checker_false_positives"] = \
            len(findings["ci"]) - true_pos


def deep_checks(programs: Sequence[Tuple[str, str]],
                jobs: int = 2) -> List[Violation]:
    """Cross-process and cache determinism for a batch of programs.

    ``programs`` is ``[(name, source), ...]``; needs at least two
    entries for the ``jobs``-fan-out leg to actually cross a process
    boundary.  Each program's CI/CS solutions must digest identically
    when analyzed inline (``jobs=1``) and across a process pool, and
    when its lowering is replayed through a cache miss then a cache
    hit — or, under the ``REPRO_NO_CACHE`` opt-out, which overrides
    the leg's own cache directory, through two uncached lowerings.
    """
    from ..runner import Request, run

    violations: List[Violation] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        tmpdir = Path(tmp)
        paths = []
        for prog_name, source in programs:
            path = tmpdir / f"{prog_name}.c"
            path.write_text(source, encoding="utf-8")
            paths.append(path)

        flavors = ("insensitive", "sensitive")
        requests = [Request.build("analyze", (path,), flavors=flavors,
                                  cache=False) for path in paths]
        inline = run(requests, jobs=1)
        # force_pool: the runner folds tiny sweeps back into the
        # calling process for speed, which would silently turn this
        # leg into a second inline run — here the process boundary
        # *is* the thing under test.
        pooled = run(requests, jobs=jobs, force_pool=True)
        for one, two in zip(inline.outcomes, pooled.outcomes):
            if not one.ok or not two.ok:
                detail = one.error or two.error
                violations.append(Violation(
                    "error", f"analysis failed during jobs check: {detail}"))
                continue
            for flavor in flavors:
                a = solution_digest(one.results[flavor])
                b = solution_digest(two.results[flavor])
                if a != b:
                    violations.append(Violation(
                        "determinism",
                        f"{one.name}: {flavor} solution differs between "
                        f"jobs=1 ({a[:12]}…) and jobs={jobs} ({b[:12]}…)"))

        cache_dir = tmpdir / "cache"
        expected = ("off", "off") if caching_disabled() else ("miss", "hit")
        for path in paths:
            cold = lower_file(path, cache=cache_dir)
            cold_status = cold.extras.get("cache")
            # Drop the in-process memo so the warm load genuinely
            # re-unpickles from disk (and is a distinct object whose
            # extras can't alias cold's).
            forget_loaded(cache_dir)
            warm = lower_file(path, cache=cache_dir)
            statuses = (cold_status, warm.extras.get("cache"))
            if statuses != expected:
                violations.append(Violation(
                    "determinism",
                    f"{path.name}: expected cache {expected[0]} then "
                    f"{expected[1]}, got {statuses}"))
            a = solution_digest(analyze_insensitive(cold))
            b = solution_digest(analyze_insensitive(warm))
            if a != b:
                violations.append(Violation(
                    "determinism",
                    f"{path.name}: CI solution differs between cache miss "
                    f"({a[:12]}…) and cache hit ({b[:12]}…)"))
    return violations
