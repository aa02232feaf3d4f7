"""Golden checker counts over the benchmark suite, and digest
stability across schedules and job counts.

The counts are the reproduction's checker-level headline: CI and CS
agree everywhere except ``loader``/``part`` (where context sensitivity
prunes spurious ``uninit`` reports), and flow-insensitivity pays on
``anagram``/``yacr2`` (initialization order stops mattering, so dead
``uninit`` markers survive).  The ``deadstore`` checker (PR 10) reports
identically under all three flavors on this suite — the dead writes it
finds are dead for aliasing reasons context sensitivity cannot change.
"""

import pytest

from repro.analysis.checkers import count_by_checker, findings_digest
from repro.runner import run_check_report
from repro.suite.registry import PROGRAM_NAMES

FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

#: name -> flavor -> {checker: count} (zero counts omitted).
GOLDEN = {
    "allroots": {"insensitive": {}, "sensitive": {},
                 "flowinsensitive": {}},
    "anagram": {"insensitive": {"nullderef": 16},
                "sensitive": {"nullderef": 16},
                "flowinsensitive": {"nullderef": 16, "uninit": 3}},
    "assembler": {"insensitive": {"nullderef": 33},
                  "sensitive": {"nullderef": 33},
                  "flowinsensitive": {"nullderef": 33}},
    "backprop": {"insensitive": {}, "sensitive": {},
                 "flowinsensitive": {}},
    "bc": {"insensitive": {"nullderef": 16},
           "sensitive": {"nullderef": 16},
           "flowinsensitive": {"nullderef": 16}},
    "compiler": {"insensitive": {}, "sensitive": {},
                 "flowinsensitive": {}},
    "compress": {"insensitive": {}, "sensitive": {},
                 "flowinsensitive": {}},
    "lex315": {"insensitive": {"deadstore": 3},
               "sensitive": {"deadstore": 3},
               "flowinsensitive": {"deadstore": 3}},
    "loader": {"insensitive": {"deadstore": 1, "nullderef": 19,
                               "uninit": 5},
               "sensitive": {"deadstore": 1, "nullderef": 19,
                             "uninit": 1},
               "flowinsensitive": {"deadstore": 1, "nullderef": 19,
                                   "uninit": 5}},
    "part": {"insensitive": {"deadstore": 1, "nullderef": 13,
                             "uninit": 28},
             "sensitive": {"deadstore": 1, "nullderef": 13,
                           "uninit": 3},
             "flowinsensitive": {"deadstore": 1, "nullderef": 13,
                                 "uninit": 28}},
    "simulator": {"insensitive": {"deadstore": 2},
                  "sensitive": {"deadstore": 2},
                  "flowinsensitive": {"deadstore": 2}},
    "span": {"insensitive": {"nullderef": 6},
             "sensitive": {"nullderef": 6},
             "flowinsensitive": {"nullderef": 6}},
    "yacr2": {"insensitive": {"nullderef": 3},
              "sensitive": {"nullderef": 3},
              "flowinsensitive": {"nullderef": 3, "uninit": 9}},
}


@pytest.fixture(scope="module")
def suite_check():
    report = run_check_report(flavors=FLAVORS)
    assert report.ok, report.errors
    return report


class TestGoldenCounts:
    def test_every_program_covered(self, suite_check):
        assert set(GOLDEN) == set(PROGRAM_NAMES)
        assert [o.name for o in suite_check.outcomes] \
            == list(PROGRAM_NAMES)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_counts(self, suite_check, name):
        outcome = next(o for o in suite_check.outcomes
                       if o.name == name)
        for flavor in FLAVORS:
            counts = count_by_checker(outcome.findings[flavor])
            assert {k: v for k, v in counts.items() if v} \
                == GOLDEN[name][flavor], f"{name}/{flavor}"

    def test_cs_never_reports_more_than_ci(self, suite_check):
        for outcome in suite_check.outcomes:
            ci = len(outcome.findings["insensitive"])
            cs = len(outcome.findings["sensitive"])
            fi = len(outcome.findings["flowinsensitive"])
            assert cs <= ci <= fi, outcome.name

    def test_telemetry_records(self, suite_check):
        records = [r for r in suite_check.records
                   if r.get("kind") == "check"]
        assert len(records) == len(PROGRAM_NAMES) * len(FLAVORS)
        for record in records:
            assert record["status"] == "ok"
            assert set(record["by_checker"]) \
                == {"deadstore", "nullderef", "stackref", "uninit",
                    "wildcall"}
            assert record["findings"] \
                == sum(record["by_checker"].values())
            dense = record["dense"]
            assert dense["decode_calls_after"] \
                >= dense["decode_calls_before"]
            assert len(record["digest"]) == 64


class TestDeterminism:
    #: The programs with the most findings — the interesting digests.
    NAMES = ("loader", "part", "anagram")

    def _digests(self, report):
        out = {}
        for o in report.outcomes:
            assert o.ok, o.error
            for flavor, findings in o.findings.items():
                out[(o.name, flavor)] = findings_digest(findings)
        return out

    def test_digests_stable_across_schedules(self, suite_check):
        baseline = {
            (o.name, flavor): findings_digest(o.findings[flavor])
            for o in suite_check.outcomes
            if o.name in self.NAMES for flavor in FLAVORS}
        report = run_check_report(names=self.NAMES, flavors=FLAVORS,
                                  schedule="fifo")
        assert self._digests(report) == baseline

    def test_digests_stable_across_jobs(self, suite_check):
        baseline = {
            (o.name, flavor): findings_digest(o.findings[flavor])
            for o in suite_check.outcomes
            if o.name in self.NAMES for flavor in FLAVORS}
        # force_pool: without it the runner folds a 3-task sweep back
        # into the calling process and no process boundary is crossed.
        report = run_check_report(names=self.NAMES, flavors=FLAVORS,
                                  jobs=2, force_pool=True)
        assert self._digests(report) == baseline
