"""Experiment drivers (on a suite subset, to stay fast)."""

import pytest

from repro.errors import ReproError
from repro.report.experiments import (
    EXPERIMENT_IDS,
    SuiteRunner,
    experiment_reads,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig6_rows,
    fig7_rows,
    gap_rows,
    opt42_rows,
    perf_rows,
    render_experiment,
)

SMALL = ["part", "span"]


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(SMALL)


class TestRunner:
    def test_caches_results(self, runner):
        assert runner.ci("part") is runner.ci("part")
        assert runner.cs("part") is runner.cs("part")
        assert runner.program("part") is runner.program("part")

    def test_cs_reuses_ci(self, runner):
        assert runner.cs("part").extras["ci_result"] is runner.ci("part")

    def test_primes_only_the_flavors_the_tables_read(self):
        assert experiment_reads(["fig2", "fig3"]) == ("insensitive",)
        assert experiment_reads(["checkers", "gap"]) == ()
        assert experiment_reads(EXPERIMENT_IDS) == ("insensitive",
                                                    "sensitive")
        ci_only = SuiteRunner(SMALL, flavors=("insensitive",))
        fig3_rows(ci_only)
        assert {record["flavor"] for record
                in ci_only.telemetry_records()} == {"insensitive"}
        # The checkers table runs its own requests: nothing is primed.
        unprimed = SuiteRunner(SMALL, flavors=())
        assert unprimed.names == SMALL
        assert unprimed.telemetry_records() == []


class TestRows:
    def test_fig2(self, runner):
        headers, rows = fig2_rows(runner)
        assert len(rows) == len(SMALL)
        assert headers[0] == "name"
        for row in rows:
            assert row[1] > 0 and row[2] > 0 and row[3] > 0

    def test_fig3_total_row(self, runner):
        _, rows = fig3_rows(runner)
        assert rows[-1][0] == "TOTAL"
        for column in range(1, 6):
            assert rows[-1][column] == sum(r[column] for r in rows[:-1])

    def test_fig4_totals(self, runner):
        _, rows = fig4_rows(runner)
        reads = [r for r in rows if r[1] == "read" and r[0] != "TOTAL"]
        total_row = next(r for r in rows
                         if r[0] == "TOTAL" and r[1] == "read")
        assert total_row[2] == sum(r[2] for r in reads)

    def test_fig6_identity_column(self, runner):
        headers, rows = fig6_rows(runner)
        assert headers[-1] == "indirect ops identical"
        for row in rows[:-1]:
            assert row[-1] is True

    def test_fig7_percentages(self, runner):
        headers, rows = fig7_rows(runner)
        all_sum = sum(row[1 + i] for row in rows for i in range(4))
        assert all_sum == pytest.approx(100.0, abs=0.1)

    def test_opt42_total(self, runner):
        _, rows = opt42_rows(runner)
        assert rows[-1][0] == "TOTAL"
        assert 0 <= rows[-1][3] <= 100

    def test_perf(self, runner):
        _, rows = perf_rows(runner)
        for row in rows:
            assert row[1] > 0 and row[2] > 0

    def test_gap(self):
        _, rows = gap_rows(site_counts=(2, 4))
        assert rows[0][0] == 2 and rows[1][0] == 4
        assert rows[1][4] > rows[0][4]  # precision gap grows


class TestRender:
    def test_render_each_id(self, runner):
        for experiment_id in EXPERIMENT_IDS:
            if experiment_id == "gap":
                continue  # slower; covered above via gap_rows
            text = render_experiment(experiment_id, runner)
            assert "Figure" in text or "Section" in text
            assert "part" in text or "path" in text

    def test_unknown_id_rejected(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            render_experiment("fig99")
