"""The checker leg of the differential oracle.

Two obligations: the ``drop-null-init`` source mutation must always
produce seeds the ``uninit`` checker catches (zero false negatives on
the mutated corpus), and a deliberately blinded checker must be
reported as a soundness failure — proving the oracle has teeth.
"""

import pytest

from repro.analysis.checkers.base import REGISTRY
from repro.analysis.clients import deadstore
from repro.fuzz.driver import run_fuzz
from repro.fuzz.generator import generate_program
from repro.fuzz.mutations import (
    SOURCE_MUTATIONS,
    apply_drop_null_init,
    drop_null_init_candidates,
)
from repro.fuzz.oracle import check_program

pytestmark = pytest.mark.fuzz

#: A hand-written program where dropping the init of ``v1`` traps on a
#: line that dereferences it — a guaranteed mutation candidate.
DEREF = """\
int g0 = 1;
int main(void) {
    int *v1 = &g0;
    int v2 = 0;
    v2 = *v1;
    return v2;
}
"""

#: ``g0 = 1`` is overwritten before any read: a dead store.
OVERWRITE = """\
int g0;
int main(void) {
    g0 = 1;
    g0 = 2;
    return g0;
}
"""

NO_POINTERS = """\
int main(void) {
    int v0 = 1;
    return v0;
}
"""


class TestDropNullInit:
    def test_registered(self):
        assert SOURCE_MUTATIONS["drop-null-init"] is apply_drop_null_init

    def test_candidates_preserve_line_numbering(self):
        for name, mutated in drop_null_init_candidates(DEREF):
            assert mutated.count("\n") == DEREF.count("\n")
            assert f"{name};" in mutated

    def test_applies_to_deref_program(self):
        mutated = apply_drop_null_init(DEREF)
        assert mutated is not None
        assert "int *v1;" in mutated

    def test_no_candidates_returns_none(self):
        assert apply_drop_null_init(NO_POINTERS) is None

    def test_mutant_caught_by_uninit_checker(self):
        mutated = apply_drop_null_init(DEREF)
        report = check_program(mutated, name="mutant.c",
                               expect_trap="uninit")
        assert report.ok, report.violations
        assert report.stats.get("checker_true_positives", 0) >= 1

    def test_missing_trap_is_a_violation(self):
        # Un-mutated source: no concrete trap, so expecting one fails.
        report = check_program(DEREF, name="clean.c",
                               expect_trap="uninit")
        assert not report.ok
        assert "trap" in {v.kind for v in report.violations}


class TestOracleHasTeeth:
    def test_blinded_uninit_checker_is_caught(self, monkeypatch):
        monkeypatch.setitem(REGISTRY._checkers, "uninit",
                            lambda result: iter(()))
        mutated = apply_drop_null_init(DEREF)
        report = check_program(mutated, name="blind.c",
                               expect_trap="uninit")
        assert not report.ok
        assert "checker" in {v.kind for v in report.violations}

    def test_wrong_dead_set_is_caught(self, monkeypatch):
        """A one-walk dead set that misses a dead store disagrees with
        the per-read walks under CI and CS alike."""
        real = deadstore.find_dead_stores

        def misses_one(result):
            report = real(result)
            assert report.dead, "the program must have a dead store"
            report.dead = report.dead[1:]
            return report

        monkeypatch.setattr(deadstore, "find_dead_stores", misses_one)
        report = check_program(OVERWRITE, name="wrong-dead.c")
        dead = [v.detail for v in report.violations
                if v.kind == "checker" and "dead stores" in v.detail]
        assert [d[:2] for d in dead] == ["CI", "CS"], report.violations

    def test_right_dead_set_passes(self):
        report = check_program(OVERWRITE, name="dead.c")
        assert report.ok, report.violations


class TestDrivenCampaign:
    def test_mutated_corpus_has_zero_false_negatives(self):
        report = run_fuzz(0, 8, mutate="drop-null-init", shrink=False)
        assert report.ok, [
            v for o in report.failures for v in o.violations]
        mutated = sum(1 for o in report.outcomes
                      if not o.stats.get("mutation_skipped"))
        assert mutated >= 1

    def test_generated_seeds_pass_checker_leg(self):
        for seed in range(2):
            program = generate_program(seed)
            report = check_program(program.source, name=program.name)
            assert report.ok, report.violations
            assert "check_ci" in report.digests
            assert "check_cs" in report.digests
