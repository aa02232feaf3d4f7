"""The command-line interface."""

import pytest

from repro.cli import main
from repro.suite.registry import program_path


@pytest.fixture
def tiny_c(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text("""
int g; int *p;
int main(void) { p = &g; *p = 1; return *p; }
""")
    return str(path)


class TestAnalyze:
    def test_both(self, tiny_c, capsys):
        assert main(["analyze", tiny_c]) == 0
        out = capsys.readouterr().out
        assert "[context-insensitive]" in out
        assert "[context-sensitive]" in out
        assert "spurious pairs:" in out

    def test_insensitive_only(self, tiny_c, capsys):
        assert main(["analyze", tiny_c,
                     "--sensitivity", "insensitive"]) == 0
        out = capsys.readouterr().out
        assert "[context-insensitive]" in out
        assert "[context-sensitive]" not in out

    def test_flowinsensitive(self, tiny_c, capsys):
        assert main(["analyze", tiny_c,
                     "--sensitivity", "flowinsensitive"]) == 0
        assert "[flow-insensitive]" in capsys.readouterr().out

    def test_show_pairs(self, tiny_c, capsys):
        assert main(["analyze", tiny_c, "--show-pairs",
                     "--sensitivity", "insensitive"]) == 0
        out = capsys.readouterr().out
        assert "(ε -> g)" in out

    def test_modref(self, tiny_c, capsys):
        assert main(["analyze", tiny_c, "--modref",
                     "--sensitivity", "insensitive"]) == 0
        out = capsys.readouterr().out
        assert "main: mod=" in out

    def test_suite_program(self, capsys):
        assert main(["analyze", str(program_path("part"))]) == 0
        out = capsys.readouterr().out
        assert "indirect ops identical: True" in out


class TestDump:
    def test_dump(self, tiny_c, capsys):
        assert main(["dump", tiny_c]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "update" in out

    def test_dump_single_function(self, capsys):
        assert main(["dump", str(program_path("part")),
                     "--function", "cell_pop"]) == 0
        out = capsys.readouterr().out
        assert "function cell_pop" in out
        assert "function main" not in out

    def test_dump_dot(self, tiny_c, capsys):
        assert main(["dump", tiny_c, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert 'subgraph "cluster_main"' in out

    def test_dump_dot_single_function(self, tiny_c, capsys):
        assert main(["dump", tiny_c, "--dot", "--function", "main"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "main"')

    def test_dump_dot_unknown_function(self, tiny_c, capsys):
        assert main(["dump", tiny_c, "--dot", "--function", "nope"]) == 1
        assert "no function" in capsys.readouterr().err

    def test_dump_annotate(self, tiny_c, capsys):
        assert main(["dump", tiny_c, "--annotate"]) == 0
        out = capsys.readouterr().out
        assert "-> {g}" in out.replace("'", "")


class TestExport:
    def test_export_json(self, tiny_c, capsys):
        import json
        assert main(["export", tiny_c]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "insensitive"
        assert "pairs" in payload

    def test_export_no_pairs_sensitive(self, tiny_c, capsys):
        import json
        assert main(["export", tiny_c, "--sensitivity", "sensitive",
                     "--no-pairs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "sensitive"
        assert "pairs" not in payload

    def test_export_flowinsensitive(self, tiny_c, capsys):
        import json
        assert main(["export", tiny_c, "--sensitivity",
                     "flowinsensitive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flavor"] == "flowinsensitive"


class TestExplain:
    def test_explain_indirect_op(self, tiny_c, capsys):
        assert main(["explain", tiny_c]) == 0
        out = capsys.readouterr().out
        assert "address constant" in out
        assert "memory write" in out or "lookup" in out

    def test_explain_function_filter(self, capsys):
        assert main(["explain", str(program_path("part")),
                     "--function", "cell_momentum"]) == 0
        out = capsys.readouterr().out
        assert "cell_momentum" in out
        assert "cell_push" not in out.split("argument")[0].split("\n")[0]

    def test_explain_no_match(self, tiny_c, capsys):
        assert main(["explain", tiny_c, "--line", "99999"]) == 1
        assert "no matching" in capsys.readouterr().err


class TestRunFlags:
    """--telemetry, --keep-going / --fail-fast on analyze."""

    @pytest.fixture
    def two_files(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text("int g; int *p = &g; int main(void){return *p;}")
        bad = tmp_path / "bad.c"
        bad.write_text("not C ((((")
        return good, bad

    def test_telemetry_inline(self, tiny_c, tmp_path, capsys):
        import json
        out_path = tmp_path / "t.jsonl"
        assert main(["analyze", tiny_c, "--telemetry",
                     str(out_path)]) == 0
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert [r["flavor"] for r in records] \
            == ["insensitive", "sensitive"]
        assert all(r["kind"] == "analysis" for r in records)
        assert all(r["counters"]["transfers"] > 0 for r in records)

    def test_keep_going_is_default(self, two_files, tmp_path, capsys):
        good, bad = two_files
        out_path = tmp_path / "t.jsonl"
        code = main(["analyze", str(good), str(bad), "--jobs", "2",
                     "--sensitivity", "insensitive",
                     "--telemetry", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1  # a failure is still a nonzero exit...
        assert "[context-insensitive]" in captured.out  # ...but good ran
        assert "bad.c" in captured.err
        import json
        kinds = [json.loads(line)["kind"]
                 for line in out_path.read_text().splitlines()]
        assert sorted(kinds) == ["analysis", "error"]

    def test_fail_fast(self, two_files, capsys):
        good, bad = two_files
        code = main(["analyze", str(bad), str(good), "--jobs", "2",
                     "--sensitivity", "insensitive", "--fail-fast"])
        assert code == 1
        assert "bad.c" in capsys.readouterr().err

    def test_telemetry_records_the_fi_schedule(self, tiny_c, tmp_path):
        import json
        out_path = tmp_path / "t.jsonl"
        assert main(["analyze", tiny_c, "--sensitivity", "flowinsensitive",
                     "--schedule", "fifo", "--telemetry",
                     str(out_path)]) == 0
        (record,) = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert record["flavor"] == "flowinsensitive"
        assert record["schedule"] == "fifo"

    def test_program_named_as_given_at_any_jobs(self, tiny_c, two_files,
                                                tmp_path, capsys):
        """Linked or fanned out, a file's records name it as given —
        the only name an error record can carry."""
        import json
        good, _ = two_files
        named = {}
        for jobs, files in (("1", [tiny_c]), ("2", [tiny_c, str(good)])):
            out_path = tmp_path / f"jobs{jobs}.jsonl"
            assert main(["analyze", *files, "--jobs", jobs,
                         "--telemetry", str(out_path)]) == 0
            named[jobs] = [json.loads(line)["program"]
                           for line in out_path.read_text().splitlines()]
        assert named["1"] == [tiny_c, tiny_c]
        assert named["2"] == [tiny_c, tiny_c, str(good), str(good)]

    def test_flags_mutually_exclusive(self, tiny_c, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", tiny_c, "--fail-fast", "--keep-going"])


class TestExperimentRunFlags:
    def test_experiment_telemetry_and_keep_going(self, tmp_path,
                                                 monkeypatch, capsys):
        import json
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULT_INJECT", "span=raise")
        out_path = tmp_path / "t.jsonl"
        code = main(["experiment", "cost", "--jobs", "2",
                     "--telemetry", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "span" in captured.err
        # Survivors still render in the cost table.
        assert "anagram" in captured.out
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert any(r["kind"] == "error" and r["program"] == "span"
                   for r in records)
        assert any(r["kind"] == "analysis" and r["program"] == "anagram"
                   for r in records)

    def test_experiment_fail_fast(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULT_INJECT", "anagram=raise")
        code = main(["experiment", "cost", "--jobs", "2", "--fail-fast"])
        assert code == 1
        assert "anagram" in capsys.readouterr().err


class TestOther:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "allroots" in out and "yacr2" in out

    def test_experiment_gap(self, capsys):
        assert main(["experiment", "gap"]) == 0
        out = capsys.readouterr().out
        assert "CS wins" in out
        assert "call sites" in out

    def test_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void) { goto x; x: return 0; }")
        assert main(["analyze", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
