"""Decode-free clients: mask-level queries never materialize pairs.

The dense fact engine keeps solutions as bitsets; ``decode_calls`` on
the fact table counts every bitset→object materialization.  The
mod/ref summary construction, the dead-store reachability test, and
the renderers that turn a solved result into text or a summary
(solution digest, pair census, summary extraction) are required to
stay at the mask level — zero decodes — with objects produced only
when a caller explicitly asks for a set.
"""

import repro
from repro.analysis.clients.deadstore import find_dead_stores
from repro.analysis.clients.modref import modref
from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.stats import pair_census
from repro.analysis.summaries import (
    LocationCodec,
    call_condensation,
    extract_summary,
)
from repro.suite.registry import load_program

from ..conftest import lower

SRC = """
int g, h;
void set(int *p, int v) { *p = v; }
int get(int *p) { return *p; }
int main(void) {
    int *q = &g;
    if (h) q = &h;
    set(q, 1);
    set(&h, 2);
    return get(q);
}
"""


def analyze():
    program = lower(SRC)
    return repro.analyze_insensitive(program)


class TestTargetsMask:
    def test_matches_object_level_locations(self):
        result = analyze()
        solution = result.solution
        table = solution.table
        ops = 0
        for graph in result.program.functions.values():
            for node in graph.memory_operations():
                mask = solution.op_targets_mask(node)
                decoded = set(table.decode_paths(mask))
                assert decoded == set(result.op_locations(node))
                ops += 1
        assert ops > 0

    def test_targets_mask_only_direct_pairs(self):
        result = analyze()
        solution = result.solution
        table = solution.table
        for graph in result.program.functions.values():
            for output in graph.outputs():
                mask = solution.targets_mask(output)
                decoded = set(table.decode_paths(mask))
                expected = {p.referent
                            for p in solution.pairs(output)
                            if p.is_direct}
                assert decoded == expected


class TestDecodeFreeClients:
    def test_modref_summaries_decode_nothing(self):
        result = analyze()
        table = result.solution.table
        before = table.decode_calls
        info = modref(result)
        for name in result.program.functions:
            info.ref_mask(name)
            info.mod_mask(name)
        assert table.decode_calls == before

    def test_modref_sets_decode_on_demand(self):
        result = analyze()
        table = result.solution.table
        info = modref(result)
        before = table.decode_calls
        mods = info.mod_set("set")
        assert table.decode_calls > before
        assert {p.base.name for p in mods} == {"g", "h"}
        # Cached: a second ask decodes nothing new.
        again = table.decode_calls
        info.mod_set("set")
        assert table.decode_calls == again

    def test_deadstore_unreachable_test_is_mask_level(self):
        result = analyze()
        table = result.solution.table
        report = find_dead_stores(result)
        assert report.total >= 1
        # The def/use walk decodes (it needs path objects); assert the
        # report agrees with the object-level unreachable definition.
        solution = result.solution
        for graph in result.program.functions.values():
            for node in graph.memory_operations():
                if node in report.unreachable:
                    assert not solution.op_targets_mask(node)


class TestDecodeFreeRendering:
    def test_digest_census_and_summaries_decode_nothing(self):
        program = load_program("part", cache=False)
        ci = repro.analyze_insensitive(program)
        results = [ci, repro.analyze_sensitive(program, ci_result=ci),
                   analyze_flowinsensitive(program)]
        table = ci.solution.table
        assert all(result.solution.table is table for result in results)
        before = table.decode_calls
        codec = LocationCodec(program)
        for members in call_condensation(program).sccs:
            extract_summary(ci, members, codec)
        for result in results:
            solution_digest(result)
            pair_census(result)
            extract_summary(result, sorted(program.functions), codec)
        assert table.decode_calls == before
