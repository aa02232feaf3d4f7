"""Comparing the two analyses: spurious pairs and the §4.3 headline.

A *spurious* points-to pair is one the context-insensitive analysis
reports but the (stripped) context-sensitive analysis does not — the
imprecision attributable to exploring unrealizable call/return paths.
Figure 6 counts them; §4.3's headline result is that none of them sit
on the location inputs of indirect memory operations, so def/use and
mod/ref clients see identical answers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import AnalysisError
from ..memory.pairs import PointsToPair
from ..ir.nodes import Node, OutputPort
from ..record import Record
from .common import AnalysisResult
from .stats import Breakdown, PairCensus, indirect_operations, pair_census


class IndirectOpDiff(Record):
    """A memory operation where CI and CS disagree (none expected on
    the paper's suite, but the adversarial programs produce them)."""

    def __init__(self, node: Node, ci_locations: Set,
                 cs_locations: Set) -> None:
        self.node = node
        self.ci_locations = ci_locations
        self.cs_locations = cs_locations

    @property
    def extra(self) -> Set:
        return self.ci_locations - self.cs_locations


class ComparisonReport(Record):
    """Everything Figure 6 and §4.3 report for one program."""

    def __init__(self, program_name: str, ci_census: PairCensus,
                 cs_census: PairCensus, spurious_pairs: int,
                 spurious_by_output: Dict[OutputPort, Set[PointsToPair]],
                 indirect_diffs: Optional[List[IndirectOpDiff]] = None
                 ) -> None:
        self.program_name = program_name
        self.ci_census = ci_census
        self.cs_census = cs_census
        self.spurious_pairs = spurious_pairs
        self.spurious_by_output = spurious_by_output
        self.indirect_diffs = [] if indirect_diffs is None else indirect_diffs

    @property
    def total_insensitive(self) -> int:
        return self.ci_census.total

    @property
    def total_sensitive(self) -> int:
        return self.cs_census.total

    @property
    def percent_spurious(self) -> float:
        """Figure 6's final column: spurious pairs as a percentage of
        the context-insensitive total."""
        total = self.ci_census.total
        return 100.0 * self.spurious_pairs / total if total else 0.0

    @property
    def indirect_ops_identical(self) -> bool:
        """§4.3: "the results for indirect memory references are
        identical to the context-insensitive results"."""
        return not self.indirect_diffs


def _check_same_program(ci: AnalysisResult, cs: AnalysisResult) -> None:
    if ci.program is not cs.program:
        raise AnalysisError("comparing analyses of different programs")
    if ci.flavor != "insensitive":
        raise AnalysisError(f"first result must be context-insensitive, "
                            f"got {ci.flavor!r}")
    if cs.flavor != "sensitive":
        raise AnalysisError(f"second result must be context-sensitive, "
                            f"got {cs.flavor!r}")


def spurious_pairs(ci: AnalysisResult, cs: AnalysisResult
                   ) -> Dict[OutputPort, Set[PointsToPair]]:
    """Per-output CI ∖ CS pair sets (only non-empty entries)."""
    _check_same_program(ci, cs)
    spurious: Dict[OutputPort, Set[PointsToPair]] = {}
    for output, pairs in ci.solution.items():
        extra = pairs - cs.solution.raw_pairs(output)
        if extra:
            spurious[output] = extra
    return spurious


def spurious_breakdown(ci: AnalysisResult, cs: AnalysisResult) -> Breakdown:
    """Figure 7's right half: path × referent types of spurious pairs."""
    breakdown: Breakdown = {}
    for pairs in spurious_pairs(ci, cs).values():
        for pair in pairs:
            key = (pair.path.report_category, pair.referent.report_category)
            breakdown[key] = breakdown.get(key, 0) + 1
    return breakdown


def compare_results(ci: AnalysisResult, cs: AnalysisResult
                    ) -> ComparisonReport:
    """Build the Figure 6 / §4.3 report for one program."""
    _check_same_program(ci, cs)
    by_output = spurious_pairs(ci, cs)
    # Sanity: CS must be a refinement of CI (it only removes pairs).
    for output, pairs in cs.solution.items():
        unsound = pairs - ci.solution.raw_pairs(output)
        if unsound:
            raise AnalysisError(
                f"context-sensitive result is not a subset of the "
                f"context-insensitive result at {output!r}: {unsound!r}")
    diffs: List[IndirectOpDiff] = []
    for node in indirect_operations(ci.program):
        ci_locs = ci.op_locations(node)
        cs_locs = cs.op_locations(node)
        if ci_locs != cs_locs:
            diffs.append(IndirectOpDiff(node, ci_locs, cs_locs))
    return ComparisonReport(
        program_name=ci.program.name,
        ci_census=pair_census(ci),
        cs_census=pair_census(cs),
        spurious_pairs=sum(len(p) for p in by_output.values()),
        spurious_by_output=by_output,
        indirect_diffs=diffs,
    )
