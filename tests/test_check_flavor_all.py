"""``check --flavor all`` shares one lowering across flavors.

A flavor-all check task lowers its program (hazard model on) exactly
once; the three analyses all consume that one :class:`Program`.  This
was suspected of re-lowering per flavor — it never did, but nothing
asserted it, so this pins the behavior two ways: a spy on the lowering
entry point, and the ``cache`` field that every check record now
carries (one lowering ⇒ one status, equal across a task's flavors).
"""

from __future__ import annotations

import pytest

import repro.frontend.pipeline as pipeline_module
from repro.runner import run_check_report

SOURCE = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""

ALL_FLAVORS = ("insensitive", "sensitive", "flowinsensitive")


@pytest.fixture
def source_c(tmp_path):
    path = tmp_path / "hazard.c"
    path.write_text(SOURCE)
    return str(path)


def _check_all(source_c, cache, **kwargs):
    return run_check_report(paths=[source_c], flavors=ALL_FLAVORS,
                            cache=cache, jobs=1, **kwargs)


def test_flavor_all_lowers_once(source_c, tmp_path, monkeypatch):
    calls = []
    real = pipeline_module.lower_file

    def spy(path, **kwargs):
        calls.append(str(path))
        return real(path, **kwargs)

    monkeypatch.setattr(pipeline_module, "lower_file", spy)
    report = _check_all(source_c, cache=str(tmp_path / "cache"))
    assert not report.errors
    assert calls == [source_c]  # one task, one lowering, three flavors


@pytest.mark.parametrize("incremental", [False, True])
def test_flavor_all_records_share_one_cache_status(source_c, tmp_path,
                                                   incremental):
    cache = str(tmp_path / "cache")
    for expected in ("miss", "hit"):
        report = _check_all(source_c, cache=cache,
                            incremental=incremental)
        records = [r for r in report.records if r.get("kind") == "check"]
        assert [r["flavor"] for r in records] == list(ALL_FLAVORS)
        statuses = {r["cache"] for r in records}
        assert statuses == {expected}


def test_flavor_all_findings_agree_on_digest_fields(source_c, tmp_path):
    """Sanity on the rest of the record shape the harness relies on."""
    report = _check_all(source_c, cache=str(tmp_path / "cache"),
                        incremental=True)
    for record in report.records:
        assert record["kind"] == "check"
        dense = record["dense"]
        for counter in ("sccs_resolved", "summaries_reused",
                        "summary_cache_hits", "summary_scc_total"):
            assert counter in dense, record["flavor"]
