"""The ``repro slice`` subcommand."""

import json

import pytest

from repro.cli import main

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

HAZARD_SOURCE = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""


@pytest.fixture
def flow_c(tmp_path):
    path = tmp_path / "flow.c"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def hazard_c(tmp_path):
    path = tmp_path / "hazard.c"
    path.write_text(HAZARD_SOURCE)
    return str(path)


class TestText:
    def test_summary_line_and_origins(self, flow_c, capsys):
        assert main(["slice", flow_c,
                     "--criterion", "flow.c:10"]) == 0
        out = capsys.readouterr().out
        assert "backward slice of flow.c:10" in out
        assert "nodes over" in out
        assert "digest" in out

    def test_forward_direction(self, flow_c, capsys):
        assert main(["slice", flow_c, "--criterion", "flow.c:6",
                     "--direction", "forward"]) == 0
        assert "forward slice" in capsys.readouterr().out


class TestJson:
    def test_document_shape(self, flow_c, capsys):
        assert main(["slice", flow_c, "--criterion", "flow.c:10",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == []
        (payload,) = doc["slices"]
        sl = payload["slice"]
        assert sl["criterion"] == "flow.c:10"
        assert sl["direction"] == "backward"
        assert sl["size"] == len(sl["nodes"]) > 0
        assert set(payload["node_info"]) == set(sl["nodes"])
        assert payload["graph"]["stats"]["edges"] > 0

    def test_digest_stable_across_schedules_and_jobs(self, flow_c,
                                                     capsys):
        digests = set()
        for extra in (["--schedule", "batched"],
                      ["--schedule", "fifo"],
                      ["--jobs", "2"],
                      ["--no-cache"]):
            assert main(["slice", flow_c, "--criterion", "flow.c:10",
                         "--format", "json"] + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            digests.add(doc["slices"][0]["slice"]["digest"])
        assert len(digests) == 1


class TestDot:
    def test_digraph_with_root_highlight(self, flow_c, capsys):
        assert main(["slice", flow_c, "--criterion", "flow.c:10",
                     "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph ")
        assert "peripheries=2" in out
        assert "->" in out


class TestFindings:
    def test_from_finding_slices_the_hazard(self, hazard_c, capsys):
        assert main(["slice", hazard_c,
                     "--from-finding", "nullderef"]) == 0
        out = capsys.readouterr().out
        assert "slice of finding:nullderef|" in out


class TestErrors:
    def test_criterion_and_finding_are_exclusive(self, flow_c):
        with pytest.raises(SystemExit):
            main(["slice", flow_c, "--criterion", "flow.c:10",
                  "--from-finding", "nullderef"])

    def test_one_criterion_required(self, flow_c):
        with pytest.raises(SystemExit):
            main(["slice", flow_c])

    def test_unmatched_criterion_fails(self, flow_c, capsys):
        assert main(["slice", flow_c,
                     "--criterion", "flow.c:999"]) == 1
        assert "matches no program point" in capsys.readouterr().err

    def test_unmatched_finding_fails(self, flow_c, capsys):
        assert main(["slice", flow_c,
                     "--from-finding", "nullderef"]) == 1
        assert "no finding matches" in capsys.readouterr().err


class TestSuitePrograms:
    def test_named_program_by_basename_criterion(self, capsys):
        assert main(["slice", "part", "--criterion", "part.c:101",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slices"][0]["program"] == "part"
