"""Dead-store detection."""

import functools

import pytest

import repro
from repro.analysis.clients import deadstore
from repro.analysis.clients.deadstore import find_dead_stores
from repro.analysis.depgraph import ReachingDefs
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.errors import AnalysisError
from repro.frontend.pipeline import lower_source
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import reference_dead_stores
from repro.ir.nodes import LookupNode, UpdateNode
from repro.suite.registry import PROGRAM_NAMES, load_program
from tests.conftest import analyze_both


def writes(program, function):
    return [n for n in program.functions[function].nodes
            if isinstance(n, UpdateNode)]


class TestDeadStores:
    def test_overwritten_strong_store_is_dead(self):
        program, ci, _ = analyze_both("""
            int g;
            int main(void) {
                g = 1;
                g = 2;
                return g;
            }
        """)
        report = find_dead_stores(ci)
        first, second = writes(program, "main")
        assert first in report.dead
        assert second not in report.dead
        assert report.total == 2 and report.live == 1

    def test_weak_store_never_dead(self):
        program, ci, _ = analyze_both("""
            int a[4];
            int main(void) {
                a[0] = 1;
                a[0] = 2;
                return a[1];
            }
        """)
        report = find_dead_stores(ci)
        assert report.dead == []

    def test_unread_location_is_dead(self):
        program, ci, _ = analyze_both("""
            int g, h;
            int main(void) { g = 1; h = 2; return h; }
        """)
        report = find_dead_stores(ci)
        (g_write, h_write) = writes(program, "main")
        assert g_write in report.dead
        assert h_write not in report.dead

    def test_cross_procedure_read_keeps_store_live(self):
        program, ci, _ = analyze_both("""
            int g;
            int reader(void) { return g; }
            int main(void) { g = 1; return reader(); }
        """)
        report = find_dead_stores(ci)
        assert report.dead == []

    def test_null_deref_reported_unreachable(self):
        program, ci, _ = analyze_both("""
            int main(void) {
                int *p = 0;
                *p = 1;
                return 0;
            }
        """)
        report = find_dead_stores(ci)
        assert len(report.unreachable) == 1
        assert report.dead == []

    def test_branch_keeps_either_store_live(self):
        program, ci, _ = analyze_both("""
            int g;
            int main(int argc, char **argv) {
                if (argc) g = 1; else g = 2;
                return g;
            }
        """)
        report = find_dead_stores(ci)
        assert report.dead == []

    def test_suite_program_has_no_unreachable_writes(self, suite_cache):
        report = find_dead_stores(suite_cache.ci("span"))
        assert report.unreachable == []
        assert report.total > 0


def flavor_results(program, ci=None, cs=None):
    """CI, CS and FI results over one lowered program."""
    ci = ci or repro.analyze_insensitive(program)
    return {"CI": ci,
            "CS": cs or repro.analyze_sensitive(program, ci_result=ci),
            "FI": analyze_flowinsensitive(program)}


def assert_one_walk_matches_per_read(results):
    """The one-walk dead set equals the union of the per-read walks'."""
    for flavor, result in results.items():
        assert find_dead_stores(result).dead == \
            reference_dead_stores(result), flavor


class TestOneWalkEqualsPerReadWalks:
    """``find_dead_stores`` walks once from every read, over the union
    of their footprints; the per-read walks of ``ReachingDefs`` are
    the reference it must equal exactly."""

    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_suite_plain(self, suite_cache, name):
        assert_one_walk_matches_per_read(flavor_results(
            suite_cache.program(name), suite_cache.ci(name),
            suite_cache.cs(name)))

    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_suite_hazard(self, name):
        assert_one_walk_matches_per_read(flavor_results(
            load_program(name, hazard_model=True)))

    @pytest.mark.parametrize("seed", range(1, 14))
    def test_fresh_class(self, seed):
        program = lower_source(generate_program(seed, 500).source,
                               name=f"fresh{seed}.c")
        results = flavor_results(program)
        assert reference_dead_stores(results["CI"])
        assert_one_walk_matches_per_read(results)

    @pytest.mark.parametrize("seed", range(3001, 3041))
    def test_generated(self, seed):
        program = lower_source(generate_program(seed, 200).source,
                               name=f"gen{seed}.c", hazard_model=True)
        results = flavor_results(program)
        assert reference_dead_stores(results["CI"])
        assert_one_walk_matches_per_read(results)


class TestOneWalkBudget:
    def budgeted(self, monkeypatch, max_visits):
        monkeypatch.setattr(deadstore, "ReachingDefs", functools.partial(
            ReachingDefs, max_visits=max_visits))

    def test_tiny_budget_raises(self, suite_cache, monkeypatch):
        self.budgeted(monkeypatch, 1)
        with pytest.raises(AnalysisError, match="budget"):
            find_dead_stores(suite_cache.ci("simulator"))

    def test_dangling_store_input_raises(self):
        program, ci, _ = analyze_both("""
            int g;
            int main(void) { g = 1; return g; }
        """)
        read = next(n for n in program.functions["main"].nodes
                    if isinstance(n, LookupNode))
        read.store.source.consumers.remove(read.store)
        read.store.source = None
        with pytest.raises(AnalysisError, match="dangling store"):
            find_dead_stores(ci)

    def test_per_read_fit_is_enough(self, suite_cache, monkeypatch):
        """The smallest budget every read's own walk fits in also fits
        the one walk from all of them."""
        result = suite_cache.ci("simulator")
        reads = [n for g in result.program.functions.values()
                 for n in g.nodes if isinstance(n, LookupNode)]

        def per_read_fits(max_visits):
            engine = ReachingDefs(result, max_visits=max_visits)
            try:
                for read in reads:
                    engine.reaching_definitions(read)
            except AnalysisError:
                return False
            return True

        low, high = 1, 1
        while not per_read_fits(high):
            low, high = high, high * 2
        while low < high:
            mid = (low + high) // 2
            low, high = (low, mid) if per_read_fits(mid) else \
                (mid + 1, high)
        self.budgeted(monkeypatch, high)
        assert find_dead_stores(result).dead == \
            reference_dead_stores(result)
