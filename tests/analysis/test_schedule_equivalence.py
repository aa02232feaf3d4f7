"""Equivalence gate: both worklist schedules agree everywhere.

The two worklist disciplines — ``batched`` on the dense bitset
engine, ``fifo`` on the object-at-a-time reference engine — must
compute the *same fixpoint* — solutions, call graphs, and every
client-visible answer — on every suite program, for every analysis.
Monotone joins over finite lattices guarantee this on paper; this
gate guarantees nobody's batching shortcut (or bitset encoding)
quietly weakens a transfer function.

Schedule-dependent quantities (``meets``; all CS counters, because
subsumption order varies) are deliberately NOT compared — see
DESIGN.md's "Engineering the fixpoint".
"""

import pytest

from repro.analysis.clients.defuse import defuse
from repro.analysis.clients.modref import modref
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.ir.nodes import CallNode
from repro.suite.registry import PROGRAM_NAMES, load_program

#: The reference point is ``batched``; every other schedule is
#: compared against it (which by transitivity compares them all).
OTHER_SCHEDULES = ("fifo",)


def _solution_snapshot(result):
    """{output -> frozen pair set} over every populated output."""
    solution = result.solution
    return {output: frozenset(solution.pairs(output))
            for output in solution.outputs()}


def _callgraph_snapshot(result):
    snapshot = {}
    for graph in result.program.functions.values():
        for node in graph.nodes:
            if isinstance(node, CallNode):
                snapshot[node] = frozenset(
                    g.name for g in result.callgraph.callees(node))
    return snapshot


def _modref_snapshot(result):
    info = modref(result)
    return {name: (info.mod_set(name), info.ref_set(name))
            for name in result.program.functions}


def _defuse_snapshot(result):
    """Reaching-definition sets per indirect read (context-insensitive
    walk: linear state space, still exercises op_locations + stores)."""
    info = defuse(result, call_site_sensitive=False)
    snapshot = {}
    for graph in result.program.functions.values():
        for read in graph.memory_operations():
            if getattr(read, "is_indirect", False) and read.kind == "read":
                snapshot[read] = frozenset(
                    info.reaching_definitions(read))
    return snapshot


@pytest.mark.parametrize("other", OTHER_SCHEDULES)
@pytest.mark.parametrize("name", PROGRAM_NAMES)
class TestScheduleEquivalence:
    def test_ci_identical(self, name, other):
        program = load_program(name)
        batched = analyze_insensitive(program, schedule="batched")
        alt = analyze_insensitive(program, schedule=other)
        assert _solution_snapshot(batched) == _solution_snapshot(alt)
        assert _callgraph_snapshot(batched) == _callgraph_snapshot(alt)
        # CI transfers and pairs_added are schedule-invariant (total
        # pushes and final solution size); meets is not.
        assert batched.counters.transfers == alt.counters.transfers
        assert batched.counters.pairs_added == alt.counters.pairs_added

    def test_cs_identical(self, name, other):
        program = load_program(name)
        ci = analyze_insensitive(program)
        batched = analyze_sensitive(program, ci_result=ci,
                                    schedule="batched")
        alt = analyze_sensitive(program, ci_result=ci, schedule=other)
        assert _solution_snapshot(batched) == _solution_snapshot(alt)

    def test_fi_identical(self, name, other):
        program = load_program(name)
        batched = analyze_flowinsensitive(program, schedule="batched")
        alt = analyze_flowinsensitive(program, schedule=other)
        assert _solution_snapshot(batched) == _solution_snapshot(alt)

    def test_clients_identical(self, name, other):
        program = load_program(name)
        results = {}
        for schedule in ("batched", other):
            ci = analyze_insensitive(program, schedule=schedule)
            cs = analyze_sensitive(program, ci_result=ci,
                                   schedule=schedule)
            results[schedule] = (ci, cs)
        for flavor in (0, 1):
            batched = results["batched"][flavor]
            alt = results[other][flavor]
            assert _modref_snapshot(batched) == _modref_snapshot(alt)
            assert _defuse_snapshot(batched) == _defuse_snapshot(alt)
