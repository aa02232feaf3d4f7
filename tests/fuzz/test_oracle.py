"""The differential soundness oracle."""

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.insensitive import analyze_insensitive
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import check_program, deep_checks
from repro.frontend.lower import lower_source

CLEAN = """\
int g0 = 1;
int g1 = 2;
int *gp = &g0;
int main(void) {
    int v0 = 0;
    gp = &g1;
    v0 = *gp;
    *gp = v0 + 1;
    return 0;
}
"""


class TestCheckProgram:
    def test_clean_program_passes(self):
        report = check_program(CLEAN, name="clean.c")
        assert report.ok
        assert report.violations == []
        assert report.stats["memory_ops"] > 0
        assert report.stats["concrete_accesses"] >= 2
        assert set(report.digests) >= {"ci", "cs", "fi"}

    def test_trap_reported_as_violation(self):
        looping = ("int g0 = 0;\n"
                   "int main(void) {\n"
                   "    while (1) { g0 = g0 + 1; }\n"
                   "    return 0;\n"
                   "}\n")
        report = check_program(looping, step_budget=200)
        assert not report.ok
        assert {v.kind for v in report.violations} == {"trap"}

    def test_generated_seeds_pass(self):
        for seed in range(3):
            program = generate_program(seed)
            report = check_program(program.source, name=program.name)
            assert report.ok, report.violations

    def test_signature_is_kind_set(self):
        report = check_program(CLEAN)
        assert report.signature() == frozenset()


class TestDigest:
    def test_digest_deterministic_across_runs(self):
        digests = set()
        for _ in range(2):
            program = lower_source(CLEAN, name="digest.c")
            digests.add(solution_digest(analyze_insensitive(program)))
        assert len(digests) == 1

    def test_digest_differs_between_programs(self):
        a = lower_source(CLEAN, name="a.c")
        b = lower_source(CLEAN.replace("gp = &g1;", "gp = &g0;"),
                         name="a.c")
        assert (solution_digest(analyze_insensitive(a))
                != solution_digest(analyze_insensitive(b)))


@pytest.mark.fuzz
class TestCampaign:
    def test_thirty_seeds_zero_violations(self):
        for seed in range(30):
            program = generate_program(seed)
            report = check_program(program.source, name=program.name)
            assert report.ok, (seed, report.violations)

    def test_deep_checks_jobs_and_cache(self):
        programs = [(p.name, p.source)
                    for p in (generate_program(s) for s in range(3))]
        assert deep_checks(programs, jobs=2) == []


class TestCacheOptOut:
    """The oracle's cache legs expect what ``REPRO_NO_CACHE`` does:
    the opt-out overrides the private cache directories they pass."""

    PROGRAMS = [("one", CLEAN), ("two", CLEAN.replace("v0 + 1", "v0 + 2"))]

    def test_deep_checks_expect_two_uncached_lowerings(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert deep_checks(self.PROGRAMS, jobs=2) == []

    def test_summary_leg_expects_every_scc_resolved(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        report = check_program(CLEAN, name="clean.c", schedules=False,
                               checkers=False, slices=False,
                               summaries=True)
        assert report.violations == []

    def test_lowering_cache_that_never_hits_is_reported(self,
                                                        monkeypatch):
        from repro.frontend.cache import clear_cache
        from repro.fuzz import oracle

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        # Deleting the disk entries as well as the memo makes the
        # second lowering miss too.
        monkeypatch.setattr(oracle, "forget_loaded", clear_cache)
        violations = deep_checks(self.PROGRAMS, jobs=2)
        assert [v.detail for v in violations] == [
            f"{name}.c: expected cache miss then hit, got "
            f"('miss', 'miss')" for name, _ in self.PROGRAMS]
