"""The alias-aware dependence graph (``analysis/depgraph``)."""

import pytest

from repro.analysis.depgraph import (
    EDGE_KINDS,
    INITIAL_KEY,
    ReachingDefs,
    build_depgraph,
    function_op_masks,
)
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.frontend.lower import lower_source
from repro.suite.registry import load_program

SOURCE = """
int g;
int h;

void set(int *p, int v) {
    *p = v;
}

int get(int *p) {
    return *p;
}

int main(void) {
    int *q = &g;
    set(q, 5);
    h = get(q);
    return h;
}
"""


@pytest.fixture(scope="module")
def graph():
    program = lower_source(SOURCE, name="dep.c")
    return build_depgraph(analyze_insensitive(program))


class TestGraphShape:
    def test_nodes_and_edges_nonempty(self, graph):
        assert graph.nodes
        assert graph.edges

    def test_initial_store_node_present(self, graph):
        assert INITIAL_KEY in graph.nodes

    def test_edges_sorted_and_kinds_known(self, graph):
        assert list(graph.edges) == sorted(graph.edges)
        assert {kind for _, _, kind in graph.edges} <= set(EDGE_KINDS)

    def test_edge_endpoints_are_nodes(self, graph):
        for src, dst, _ in graph.edges:
            assert src in graph.nodes
            assert dst in graph.nodes

    def test_stats_counts_agree(self, graph):
        stats = graph.stats()
        assert stats["nodes"] == len(graph.nodes)
        assert stats["edges"] == len(graph.edges)
        assert sum(stats[f"{kind}_edges"] for kind in EDGE_KINDS) \
            == stats["edges"]

    def test_store_to_load_flow_has_mem_edge(self, graph):
        """``set`` writes ``g`` through p; ``get`` reads it back — the
        interprocedural def→use must surface as a mem edge."""
        updates = [key for key, (fn, kind, _) in graph.nodes.items()
                   if fn == "set" and kind == "update"]
        lookups = [key for key, (fn, kind, _) in graph.nodes.items()
                   if fn == "get" and kind == "lookup"]
        assert updates and lookups
        mem = {(src, dst) for src, dst, kind in graph.edges
               if kind == "mem"}
        assert any((u, l) in mem for u in updates for l in lookups)

    def test_neighbours_are_inverse_views(self, graph):
        for src, dst, kind in graph.edges:
            assert (dst, kind) in graph.neighbours(src, "forward")
            assert (src, kind) in graph.neighbours(dst, "backward")


class TestDeterminism:
    def test_digest_stable_across_schedules(self):
        program = load_program("part", cache=False)
        base = build_depgraph(analyze_insensitive(program)).digest()
        alt = build_depgraph(analyze_insensitive(program, schedule="fifo"))
        assert alt.digest() == base

    def test_rebuild_is_identical(self, graph):
        program = lower_source(SOURCE, name="dep.c")
        again = build_depgraph(analyze_insensitive(program))
        assert again.digest() == graph.digest()
        assert again.edges == graph.edges

    def test_cs_graph_also_builds(self):
        program = lower_source(SOURCE, name="dep.c")
        ci = analyze_insensitive(program)
        cs = analyze_sensitive(program, ci_result=ci)
        graph = build_depgraph(cs)
        assert graph.flavor == "sensitive"
        assert graph.edges


class TestReachingDefs:
    def test_shared_engine_reused(self):
        program = lower_source(SOURCE, name="dep.c")
        result = analyze_insensitive(program)
        engine = ReachingDefs(result, call_site_sensitive=False)
        graph = build_depgraph(result, engine=engine)
        assert graph.digest() == build_depgraph(result).digest()

    def test_function_op_masks_cover_lookups(self):
        program = lower_source(SOURCE, name="dep.c")
        result = analyze_insensitive(program)
        masks = function_op_masks(result)
        assert set(masks) <= set(program.functions)
