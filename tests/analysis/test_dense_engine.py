"""Dense bitset fact engine: ids, digests, telemetry.

The schedule-equivalence gate already proves both schedules reach the
same object-level fixpoint; this module pins down the dense engine's
own contracts — content digests stable across schedules (the bench
gate's criterion), the ``extras["dense"]`` telemetry block, and the
bitset-backed :class:`PointsToSolution` invariants.
"""

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.memory.facttable import popcount
from repro.suite.registry import PROGRAM_NAMES, load_program

SCHEDULES = ("batched", "fifo")


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_solution_digests_identical_across_schedules(name):
    """CI and CS content digests match for fifo × batched."""
    program = load_program(name)
    ci_digests = {}
    cs_digests = {}
    for schedule in SCHEDULES:
        ci = analyze_insensitive(program, schedule=schedule)
        cs = analyze_sensitive(program, ci_result=ci, schedule=schedule)
        ci_digests[schedule] = solution_digest(ci)
        cs_digests[schedule] = solution_digest(cs)
    assert len(set(ci_digests.values())) == 1, ci_digests
    assert len(set(cs_digests.values())) == 1, cs_digests


class TestDenseTelemetry:
    def test_dense_extras_present(self):
        result = analyze_insensitive(load_program("span"))
        dense = result.extras["dense"]
        assert dense["fact_ids"] > 0
        assert dense["bitset_words"] > 0
        assert dense["decode_calls"] >= 0


class TestBitsetSolution:
    def test_mask_and_pairs_agree(self):
        result = analyze_insensitive(load_program("span"))
        solution = result.solution
        total = 0
        for output in solution.outputs():
            mask = solution.mask(output)
            pairs = solution.pairs(output)
            assert popcount(mask) == len(pairs)
            total += len(pairs)
        assert solution.total_pairs() == total
        assert solution.bitset_words() > 0

    def test_pairs_view_is_cached_until_growth(self):
        result = analyze_insensitive(load_program("span"))
        solution = result.solution
        output = next(iter(solution.outputs()))
        first = solution.pairs(output)
        assert solution.pairs(output) is first  # cached snapshot
        # Re-adding a known fact neither grows nor invalidates.
        known = next(iter(first))
        assert solution.add(output, known) is False
        assert solution.join_mask(output, solution.mask(output)) == 0
        assert solution.pairs(output) is first
