"""Every metric the paper's evaluation reports.

* :func:`program_sizes` — Figure 2 (source lines, VDG nodes,
  alias-related outputs).
* :func:`pair_census` — Figures 3 and 6 (points-to pairs by output
  type: pointer / function / aggregate / store).
* :func:`indirect_op_stats` — Figure 4 (locations referenced/modified
  by indirect reads and writes: 1/2/3/≥4 histogram, max, average).
* :func:`pair_breakdown` — Figure 7 (pairs by path type × referent
  type).
* :func:`pruning_coverage` — the §4.2 text claims (87% of indirect ops
  single-location; 9% of reads / 7% of writes need assumptions).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import AnalysisError
from ..ir.graph import Program
from ..ir.nodes import LookupNode, Node, UpdateNode, ValueTag
from ..record import Record
from .common import AnalysisResult


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------


class ProgramSizes(Record):
    """One row of Figure 2."""

    def __init__(self, name: str, source_lines: int, vdg_nodes: int,
                 alias_related_outputs: int) -> None:
        self.name = name
        self.source_lines = source_lines
        self.vdg_nodes = vdg_nodes
        self.alias_related_outputs = alias_related_outputs


def program_sizes(program: Program) -> ProgramSizes:
    return ProgramSizes(
        name=program.name,
        source_lines=program.source_lines,
        vdg_nodes=program.node_count(),
        alias_related_outputs=program.alias_related_output_count(),
    )


# ---------------------------------------------------------------------------
# Figures 3 and 6 (pair census by output type)
# ---------------------------------------------------------------------------


class PairCensus(Record):
    """One row of Figure 3 (or the first five columns of Figure 6)."""

    def __init__(self, pointer: int = 0, function: int = 0,
                 aggregate: int = 0, store: int = 0, other: int = 0) -> None:
        self.pointer = pointer
        self.function = function
        self.aggregate = aggregate
        self.store = store
        self.other = other  # pairs on scalar-tagged outputs (should stay zero)

    @property
    def total(self) -> int:
        return (self.pointer + self.function + self.aggregate
                + self.store + self.other)


_TAG_FIELD = {
    ValueTag.POINTER: "pointer",
    ValueTag.FUNCTION: "function",
    ValueTag.AGGREGATE: "aggregate",
    ValueTag.STORE: "store",
    ValueTag.SCALAR: "other",
}


def pair_census(result: AnalysisResult) -> PairCensus:
    """Pairs per output type, counted on the masks (no decoding)."""
    census = PairCensus()
    solution = result.solution
    for output in solution.outputs():
        bucket = _TAG_FIELD[output.tag]
        setattr(census, bucket, getattr(census, bucket)
                + solution.mask(output).bit_count())
    return census


# ---------------------------------------------------------------------------
# Figure 4 (indirect memory operations)
# ---------------------------------------------------------------------------


class IndirectOpStats(Record):
    """One (program, read-or-write) row of Figure 4."""

    def __init__(self, kind: str, total: int = 0, one: int = 0,
                 two: int = 0, three: int = 0, four_plus: int = 0,
                 zero: int = 0, max_locations: int = 0,
                 sum_locations: int = 0) -> None:
        self.kind = kind          # "read" or "write"
        self.total = total
        self.one = one            # operations referencing exactly 1 location
        self.two = two
        self.three = three
        self.four_plus = four_plus
        self.zero = zero          # e.g. dereferences of the null pointer only
        self.max_locations = max_locations
        self.sum_locations = sum_locations

    @property
    def avg(self) -> float:
        """Average locations per op, over *all* ops (the paper's
        backprop row averages 0.97 because one read references only the
        null pointer)."""
        return self.sum_locations / self.total if self.total else 0.0

    def record(self, count: int) -> None:
        self.total += 1
        self.sum_locations += count
        self.max_locations = max(self.max_locations, count)
        if count == 0:
            self.zero += 1
        elif count == 1:
            self.one += 1
        elif count == 2:
            self.two += 1
        elif count == 3:
            self.three += 1
        else:
            self.four_plus += 1


def indirect_operations(program: Program,
                        kind: Optional[str] = None) -> Iterable[Node]:
    """Every indirect lookup/update, optionally filtered by kind."""
    for graph in program.functions.values():
        for node in graph.memory_operations():
            if not node.is_indirect:
                continue
            if kind == "read" and not isinstance(node, LookupNode):
                continue
            if kind == "write" and not isinstance(node, UpdateNode):
                continue
            yield node


def indirect_op_stats(result: AnalysisResult,
                      kind: str) -> IndirectOpStats:
    if kind not in ("read", "write"):
        raise AnalysisError(f"kind must be 'read' or 'write', not {kind!r}")
    stats = IndirectOpStats(kind=kind)
    for node in indirect_operations(result.program, kind):
        stats.record(len(result.op_locations(node)))
    return stats


# ---------------------------------------------------------------------------
# Figure 7 (path type × referent type breakdown)
# ---------------------------------------------------------------------------

PATH_CATEGORIES = ("offset", "local", "global", "heap")
REFERENT_CATEGORIES = ("function", "local", "global", "heap")

Breakdown = Dict[Tuple[str, str], int]


def pair_breakdown(result: AnalysisResult) -> Breakdown:
    """Counts of (path category, referent category) over every pair on
    every output (pairs appearing on several outputs count once each,
    as in the paper's totals)."""
    breakdown: Breakdown = {}
    for _, pairs in result.solution.items():
        for pair in pairs:
            key = (pair.path.report_category, pair.referent.report_category)
            breakdown[key] = breakdown.get(key, 0) + 1
    return breakdown


def breakdown_percentages(breakdown: Breakdown) -> Dict[Tuple[str, str], float]:
    total = sum(breakdown.values())
    if total == 0:
        return {}
    return {key: 100.0 * count / total for key, count in breakdown.items()}


# ---------------------------------------------------------------------------
# §4.2 (CI-based pruning coverage)
# ---------------------------------------------------------------------------


class StructureStats(Record):
    """§5.1.2's structural explanations, made measurable.

    The paper attributes the lack of spurious pairs to benchmark
    structure: "these programs have relatively sparse call graphs;
    procedures average 4.2 callers, 54% of procedures have only one
    caller", and "these programs exhibit only shallow nesting of
    pointer datatypes; the vast majority of pointers are single-level
    (i.e., they reference scalar datatypes)".
    """

    def __init__(self, procedures: int = 0, called_procedures: int = 0,
                 call_edges: int = 0, single_caller: int = 0,
                 value_pairs: int = 0, multi_level_pairs: int = 0) -> None:
        self.procedures = procedures
        self.called_procedures = called_procedures
        self.call_edges = call_edges      # distinct (call site, callee) pairs
        self.single_caller = single_caller
        self.value_pairs = value_pairs    # direct pairs on value outputs
        self.multi_level_pairs = multi_level_pairs  # referent holds pointers

    @property
    def avg_callers(self) -> float:
        """Call sites per called procedure (paper: 4.2)."""
        return (self.call_edges / self.called_procedures
                if self.called_procedures else 0.0)

    @property
    def single_caller_fraction(self) -> float:
        """Procedures with exactly one caller (paper: 54%)."""
        return (self.single_caller / self.called_procedures
                if self.called_procedures else 0.0)

    @property
    def multi_level_fraction(self) -> float:
        """Pointers whose referent holds further pointers — the
        complement of the paper's "single-level" majority."""
        return (self.multi_level_pairs / self.value_pairs
                if self.value_pairs else 0.0)


def structure_stats(result: AnalysisResult) -> StructureStats:
    """Compute the §5.1.2 structural statistics from a CI result."""
    stats = StructureStats()
    program = result.program
    stats.procedures = len(program.functions)
    caller_counts: Dict[str, int] = {}
    for call, callee in result.callgraph.edges():
        caller_counts[callee.name] = caller_counts.get(callee.name, 0) + 1
        stats.call_edges += 1
    stats.called_procedures = len(caller_counts)
    stats.single_caller = sum(1 for c in caller_counts.values() if c == 1)

    # A referent "holds pointers" when some store pair's path extends
    # it: dereferencing the pointer can yield another pointer.
    pointerish_prefixes = set()
    for output, pairs in result.solution.items():
        if output.tag is not ValueTag.STORE:
            continue
        for pair in pairs:
            path = pair.path
            for cut in range(len(path.ops) + 1):
                pointerish_prefixes.add((path.base, path.ops[:cut]))
    for output, pairs in result.solution.items():
        if output.tag is ValueTag.STORE:
            continue
        for pair in pairs:
            if not pair.is_direct:
                continue
            stats.value_pairs += 1
            referent = pair.referent
            if (referent.base, referent.ops) in pointerish_prefixes:
                stats.multi_level_pairs += 1
    return stats


class ContextStats(Record):
    """How many contexts the CS analysis actually distinguished.

    A procedure's context count is the number of distinct assumption
    sets observed across its formals' qualified pairs — the quantity
    whose worst case is exponential (§4.1) and which the call-graph
    sparsity of §5.1.2 keeps small in practice.
    """

    def __init__(self, per_procedure: Optional[Dict[str, int]] = None
                 ) -> None:
        self.per_procedure = {} if per_procedure is None else per_procedure

    @property
    def max_contexts(self) -> int:
        return max(self.per_procedure.values(), default=0)

    @property
    def avg_contexts(self) -> float:
        if not self.per_procedure:
            return 0.0
        return sum(self.per_procedure.values()) / len(self.per_procedure)


def context_stats(cs_result: AnalysisResult) -> ContextStats:
    """Distinct assumption-set counts per procedure (CS results only)."""
    qualified = cs_result.extras.get("qualified")
    if qualified is None:
        raise AnalysisError("context statistics need a context-sensitive "
                            "result")
    stats = ContextStats()
    for graph in cs_result.program.functions.values():
        contexts = set()
        formals = list(graph.formals) + [graph.store_formal]
        for formal in formals:
            for pair in qualified.plain_pairs(formal):
                for assumptions in qualified.assumption_sets(formal, pair):
                    contexts.add(assumptions)
        stats.per_procedure[graph.name] = len(contexts)
    return stats


class PruningCoverage(Record):
    """How widely the §4.2 optimizations apply, from the CI result."""

    def __init__(self, indirect_total: int = 0, single_location: int = 0,
                 reads_total: int = 0, reads_needing_assumptions: int = 0,
                 writes_total: int = 0,
                 writes_needing_assumptions: int = 0) -> None:
        self.indirect_total = indirect_total
        self.single_location = single_location  # paper: 87% of indirect ops
        self.reads_total = reads_total
        #: Paper: 9% of indirect reads.
        self.reads_needing_assumptions = reads_needing_assumptions
        self.writes_total = writes_total
        #: Paper: 7% of indirect writes.
        self.writes_needing_assumptions = writes_needing_assumptions

    @property
    def single_location_fraction(self) -> float:
        return (self.single_location / self.indirect_total
                if self.indirect_total else 0.0)

    @property
    def reads_fraction(self) -> float:
        return (self.reads_needing_assumptions / self.reads_total
                if self.reads_total else 0.0)

    @property
    def writes_fraction(self) -> float:
        return (self.writes_needing_assumptions / self.writes_total
                if self.writes_total else 0.0)


def pruning_coverage(ci_result: AnalysisResult) -> PruningCoverage:
    """§4.2: an indirect op that CI proves single-location needs no
    location assumptions; of the rest, only those moving pointer or
    function values affect the analysis and must introduce them."""
    coverage = PruningCoverage()
    for node in indirect_operations(ci_result.program):
        count = len(ci_result.op_locations(node))
        coverage.indirect_total += 1
        single = count <= 1
        if single:
            coverage.single_location += 1
        if isinstance(node, LookupNode):
            coverage.reads_total += 1
            if not single and node.out.alias_related:
                coverage.reads_needing_assumptions += 1
        else:
            coverage.writes_total += 1
            value_src = node.value.source
            moves_pointers = value_src is not None and value_src.alias_related
            if not single and moves_pointers:
                coverage.writes_needing_assumptions += 1
    return coverage
