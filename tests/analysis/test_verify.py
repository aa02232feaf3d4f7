"""The independent fixpoint verifier."""

import pytest

from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.analysis.verify import (
    assert_fixpoint,
    assert_qualified_fixpoint,
    verify_qualified,
    verify_solution,
)
from repro.fuzz.mutations import cs_survive_dom
from repro.memory import direct, global_location, location_path
from tests.conftest import analyze_both, lower


SRC = """
extern void *malloc(unsigned long n);
int g1, g2;
struct node { int *p; struct node *next; };
struct node *head;
void push(int *value) {
    struct node *n = malloc(sizeof(struct node));
    n->p = value;
    n->next = head;
    head = n;
}
int main(int argc, char **argv) {
    push(argc ? &g1 : &g2);
    push(&g1);
    struct node *walk;
    int total = 0;
    for (walk = head; walk; walk = walk->next)
        total += *walk->p;
    return total;
}
"""


class TestVerifier:
    def test_ci_solution_is_fixpoint(self):
        _, ci, _ = analyze_both(SRC)
        assert verify_solution(ci) == []

    def test_cs_stripped_solution_is_fixpoint(self):
        _, _, cs = analyze_both(SRC)
        assert verify_solution(cs) == []

    def test_flow_insensitive_solution_passes(self):
        program = lower(SRC)
        fi = analyze_flowinsensitive(program)
        assert verify_solution(fi) == []

    def test_suite_programs_are_fixpoints(self, suite_cache, suite_name):
        assert_fixpoint(suite_cache.ci(suite_name))
        assert_fixpoint(suite_cache.cs(suite_name))

    def test_detects_removed_pair(self):
        """Deleting any pair from a solution must be reported."""
        program, ci, _ = analyze_both(SRC)
        # Remove one pair from some populated output.
        for output in list(ci.solution.outputs()):
            bits = ci.solution._masks[output]
            if bits and output.node.kind != "entry":
                ci.solution._masks[output] = bits & (bits - 1)
                ci.solution._decoded.pop(output, None)
                break
        violations = verify_solution(ci)
        assert violations
        assert any("misses" in str(v) for v in violations)

    def test_detects_missing_call_edge(self):
        program, ci, _ = analyze_both("""
            int g;
            void set(void) { g = 1; }
            int main(void) { set(); return g; }
        """)
        call = next(n for g in ci.program.functions.values()
                    for n in g.nodes if n.kind == "call")
        ci.callgraph._callees[call] = {}
        violations = verify_solution(ci)
        assert any(v.reason == "undiscovered call edge"
                   for v in violations)

    def test_assert_fixpoint_raises_with_listing(self):
        program, ci, _ = analyze_both("int g; int main(void) "
                                      "{ g = 1; return g; }")
        ci.solution._masks = dict.fromkeys(ci.solution._masks, 0)
        ci.solution._decoded.clear()
        with pytest.raises(AssertionError, match="fixpoint violations"):
            assert_fixpoint(ci)


class TestQualifiedVerifier:
    """The qualified-pair (context-sensitive) fixpoint checker."""

    def test_cs_qualified_solution_is_fixpoint(self):
        _, _, cs = analyze_both(SRC)
        assert verify_qualified(cs) == []

    def test_unoptimized_cs_also_passes(self):
        program = lower(SRC)
        cs = analyze_sensitive(program, optimize=False)
        assert verify_qualified(cs) == []

    def test_requires_live_qualified_solution(self):
        _, ci, _ = analyze_both(SRC)
        with pytest.raises(ValueError, match="qualified"):
            verify_qualified(ci)

    def test_catches_broken_survive_rule(self):
        """A CS transfer function that treats may-alias ``dom`` as
        must-overwrite drops qualified store pairs; the independent
        re-derivation must notice the missing facts."""
        with cs_survive_dom():
            program = lower(SRC)
            ci = analyze_insensitive(program)
            cs = analyze_sensitive(program, ci_result=ci)
            violations = verify_qualified(cs)
        assert violations
        assert any("update" in v.reason for v in violations)

    def test_assert_qualified_fixpoint_raises(self):
        with cs_survive_dom():
            program = lower(SRC)
            cs = analyze_sensitive(program)
            with pytest.raises(AssertionError,
                               match="qualified fixpoint violations"):
                assert_qualified_fixpoint(cs)

    def test_suite_programs_pass(self, suite_cache, suite_name):
        assert_qualified_fixpoint(suite_cache.cs(suite_name))
