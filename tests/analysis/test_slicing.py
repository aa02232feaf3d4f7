"""Program slicing (``analysis/slicing``) and slice witnesses."""

import pytest

from repro.analysis.checkers import run_checkers
from repro.analysis.depgraph import build_depgraph
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.slicing import (
    attach_slice_witnesses,
    compute_slice,
    criterion_nodes,
    finding_node_key,
    resolve_finding,
    slice_criterion,
    slice_for_finding,
)
from repro.errors import AnalysisError
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

#: Line of ``*p = v;`` / ``return *p;`` in SOURCE (1-based, leading
#: newline counts).
WRITE_LINE = 6
READ_LINE = 10


@pytest.fixture(scope="module")
def graph():
    program = lower_source(SOURCE, name="slice.c")
    return build_depgraph(analyze_insensitive(program))


class TestCriteria:
    def test_matches_nodes_on_the_line(self, graph):
        keys = criterion_nodes(graph, f"slice.c:{WRITE_LINE}")
        assert keys
        assert all(graph.nodes[k][2].endswith(f":{WRITE_LINE}")
                   for k in keys)

    def test_basename_matches_absolute_origin(self):
        program = load_program("part", cache=False)
        part = build_depgraph(analyze_insensitive(program))
        assert criterion_nodes(part, "part.c:101")

    def test_missing_colon_rejected(self, graph):
        with pytest.raises(AnalysisError, match="bad slice criterion"):
            criterion_nodes(graph, "slice.c")

    def test_unmatched_line_rejected(self, graph):
        with pytest.raises(AnalysisError, match="matches no program"):
            criterion_nodes(graph, "slice.c:999")


class TestComputeSlice:
    def test_backward_reaches_the_write(self, graph):
        result = slice_criterion(graph, f"slice.c:{READ_LINE}",
                                 "backward")
        assert set(result.roots) <= set(result.nodes)
        assert any(origin.endswith(f":{WRITE_LINE}")
                   for origin in result.origins)

    def test_forward_reaches_the_read(self, graph):
        result = slice_criterion(graph, f"slice.c:{WRITE_LINE}",
                                 "forward")
        assert any(origin.endswith(f":{READ_LINE}")
                   for origin in result.origins)

    def test_edges_connect_members(self, graph):
        result = slice_criterion(graph, f"slice.c:{READ_LINE}")
        members = set(result.nodes)
        for src, dst, _ in result.edges:
            assert src in members and dst in members

    def test_unknown_direction_rejected(self, graph):
        with pytest.raises(AnalysisError, match="unknown slice direction"):
            compute_slice(graph, list(graph.nodes)[:1], "sideways")

    def test_unknown_root_rejected(self, graph):
        with pytest.raises(AnalysisError, match="not in the dependence"):
            compute_slice(graph, ["main:bogus#999"], "backward")

    def test_digest_depends_on_direction(self, graph):
        criterion = f"slice.c:{WRITE_LINE}"
        back = slice_criterion(graph, criterion, "backward")
        forth = slice_criterion(graph, criterion, "forward")
        assert back.digest() != forth.digest()

    def test_as_dict_round_trip(self, graph):
        result = slice_criterion(graph, f"slice.c:{READ_LINE}")
        doc = result.as_dict()
        assert doc["size"] == len(doc["nodes"]) == result.size
        assert doc["digest"] == result.digest()


class TestDeterminism:
    def test_slice_digest_stable_across_schedules(self):
        program = load_program("part", cache=False)
        digests = set()
        for schedule in ("batched", "fifo"):
            result = analyze_insensitive(program, schedule=schedule)
            graph = build_depgraph(result)
            digests.add(slice_criterion(graph, "part.c:101").digest())
        assert len(digests) == 1


HAZARD_SOURCE = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""


@pytest.fixture(scope="module")
def hazard():
    program = lower_source(HAZARD_SOURCE, name="hazard.c",
                           hazard_model=True)
    result = analyze_insensitive(program)
    findings = run_checkers(result)
    return result, findings


class TestFindings:
    def test_resolve_exact_and_substring(self, hazard):
        _, findings = hazard
        assert findings
        full = "|".join(findings[0].key())
        assert resolve_finding(findings, full) is findings[0]
        assert resolve_finding(findings, "nullderef") \
            in findings

    def test_resolve_miss_is_an_error(self, hazard):
        _, findings = hazard
        with pytest.raises(AnalysisError, match="no finding matches"):
            resolve_finding(findings, "not-a-checker")

    def test_resolve_ambiguity_is_an_error(self, hazard):
        _, findings = hazard
        doubled = list(findings) * 2
        with pytest.raises(AnalysisError, match="ambiguous"):
            resolve_finding(doubled, "nullderef")

    def test_slice_for_finding(self, hazard):
        result, findings = hazard
        graph = build_depgraph(result)
        finding = resolve_finding(findings, "nullderef")
        sliced = slice_for_finding(graph, finding)
        assert finding_node_key(finding) in sliced.nodes
        assert sliced.criterion.startswith("finding:nullderef|")

    def test_witnesses_attached(self, hazard):
        result, findings = hazard
        attach_slice_witnesses(findings, result)
        for finding in findings:
            assert "slice[backward]" in (finding.witness or "")

    def test_witness_appends_to_existing_text(self, hazard):
        result, findings = hazard
        fresh = run_checkers(result, witness=True)
        before = [f.witness for f in fresh]
        attach_slice_witnesses(fresh, result)
        for old, finding in zip(before, fresh):
            if old:
                assert finding.witness.startswith(old)
            assert "slice[backward]" in finding.witness
