"""The ``repro check`` subcommand."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def hazards_c(tmp_path):
    path = tmp_path / "hazards.c"
    path.write_text("""
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    int *u;
    *u = 2;
    return 0;
}
""")
    return str(path)


@pytest.fixture
def clean_c(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("""
int g;
int main(void) { int *p = &g; *p = 1; return *p; }
""")
    return str(path)


class TestCheckText:
    def test_findings_and_summary(self, hazards_c, capsys):
        assert main(["check", hazards_c]) == 0
        out = capsys.readouterr().out
        assert "[nullderef/insensitive]" in out
        assert "[uninit/insensitive]" in out
        assert "hazards.c:" in out
        assert "finding(s) across 1 program(s)" in out

    def test_clean_program(self, clean_c, capsys):
        assert main(["check", clean_c]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_checker_filter(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--checkers", "uninit"]) == 0
        out = capsys.readouterr().out
        assert "[uninit/insensitive]" in out
        assert "nullderef" not in out

    def test_unknown_checker_rejected(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--checkers", "nosuch"]) == 1
        assert "unknown checker" in capsys.readouterr().err

    def test_witness(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--witness",
                     "--checkers", "nullderef"]) == 0
        out = capsys.readouterr().out
        assert "<null>" in out
        assert "address constant" in out

    def test_suite_program_by_name(self, capsys):
        assert main(["check", "span"]) == 0
        out = capsys.readouterr().out
        assert "span.c:" in out


class TestCheckJson:
    def test_payload_shape(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []
        (entry,) = payload["programs"]
        assert entry["program"] == hazards_c
        per_flavor = entry["flavors"]["insensitive"]
        assert len(per_flavor["digest"]) == 64
        checkers = {f["checker"] for f in per_flavor["findings"]}
        assert {"nullderef", "uninit"} <= checkers

    def test_all_flavors(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--flavor", "all",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["programs"]
        assert set(entry["flavors"]) == {"insensitive", "sensitive",
                                         "flowinsensitive"}


class TestCheckSarif:
    def test_sarif_log(self, hazards_c, capsys):
        assert main(["check", hazards_c, "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert results
        assert {r["ruleId"] for r in results} \
            == {"deadstore", "nullderef", "uninit"}

    def test_sarif_stable_across_schedules(self, hazards_c, capsys):
        outputs = []
        for schedule in ("batched", "fifo"):
            assert main(["check", hazards_c, "--format", "sarif",
                         "--schedule", schedule, "--no-cache"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCheckErrors:
    def test_missing_file_keep_going(self, hazards_c, tmp_path, capsys):
        missing = str(tmp_path / "nope.c")
        assert main(["check", hazards_c, missing]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "finding(s)" in captured.out  # good file still checked

    def test_telemetry(self, hazards_c, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        assert main(["check", hazards_c,
                     "--telemetry", str(out_path)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["check"]
        assert records[0]["by_checker"]["nullderef"] >= 1
        assert "decode_calls_after" in records[0]["dense"]
