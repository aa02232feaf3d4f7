"""Differential gate for the summary layer: composed == whole-program.

The incremental driver (:mod:`repro.analysis.incremental`) may only
ever change how much *work* a run does — never what it computes.  This
harness holds it to digest equality
(:func:`repro.analysis.common.solution_digest`) against independent
whole-program solves, across every suite program and all three
flavors, for each of its regimes:

* **cold** — empty store: digests match, every SCC resolved;
* **replay** — unchanged program, warm store: digests match with
  ``sccs_resolved = 0`` (not one transfer function ran);
* **partial** — after editing one function body, only the dirty
  caller cone is re-solved (``0 < sccs_resolved < summary_scc_total``
  for CI) and the digests still match a cold solve of the edited
  program.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.incremental import FLAVORS, analyze_incremental

from ..conftest import lower

#: (flavor name, counters dict) pairs for one incremental run.
def _counters(results):
    return {flavor: result.extras["dense"] for flavor, result in
            results.items()}


def _digests(results):
    return {flavor: solution_digest(result)
            for flavor, result in results.items()}


# -- suite sweep ------------------------------------------------------------


def test_suite_cold_and_replay_match_whole_program(suite_name, suite_cache,
                                                   tmp_path):
    """Cold populate + warm replay reproduce the whole-program digests
    on every suite program, every flavor."""
    program = suite_cache.program(suite_name)
    baseline = {
        "insensitive": solution_digest(suite_cache.ci(suite_name)),
        "sensitive": solution_digest(suite_cache.cs(suite_name)),
        "flowinsensitive": solution_digest(
            analyze_flowinsensitive(program)),
    }

    cold = analyze_incremental(program, cache=str(tmp_path))
    assert _digests(cold) == baseline
    for flavor, dense in _counters(cold).items():
        assert dense["summary_cache_hits"] == 0, flavor
        assert dense["sccs_resolved"] == dense["summary_scc_total"], flavor
        assert dense["summary_scc_total"] > 0, flavor

    warm = analyze_incremental(program, cache=str(tmp_path))
    assert _digests(warm) == baseline
    for flavor, dense in _counters(warm).items():
        assert dense["sccs_resolved"] == 0, flavor
        assert dense["summaries_reused"] == dense["summary_scc_total"], \
            flavor


# -- edit-cone --------------------------------------------------------------

#: Two independent leaves under one caller: editing ``leafA`` must not
#: disturb ``leafB``'s summary.  The edit keeps every allocation /
#: string literal intact so location numbering is stable — the partial
#: path's intended regime (structural drift falls back to cold, which
#: a different test covers).
TWO_LEAF = """
int ga;
int gb;
int *leafA(int *pb) { return &ga; }
int *leafB(void) { return &gb; }
int main(void) {
  int *a = leafA(0);
  int *b = leafB();
  *a = 1;
  *b = 2;
  return 0;
}
"""

TWO_LEAF_EDITED = TWO_LEAF.replace("return &ga;",
                                   "return pb ? pb : &ga;")
assert TWO_LEAF_EDITED != TWO_LEAF


def _whole_program_digests(program):
    ci = repro.analyze_insensitive(program)
    cs = repro.analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def test_edit_resolves_only_the_dirty_cone(tmp_path):
    cache = str(tmp_path)
    cold = analyze_incremental(lower(TWO_LEAF, name="two"), cache=cache)
    total = cold["insensitive"].extras["dense"]["summary_scc_total"]
    assert total == 3  # leafA, leafB, main

    warm = analyze_incremental(lower(TWO_LEAF, name="two"), cache=cache)
    assert _digests(warm) == _digests(cold)
    assert all(d["sccs_resolved"] == 0 for d in _counters(warm).values())

    edited = lower(TWO_LEAF_EDITED, name="two")
    baseline = _whole_program_digests(edited)
    partial = analyze_incremental(edited, cache=cache)
    assert _digests(partial) == baseline

    dense = partial["insensitive"].extras["dense"]
    # leafB's summary survives the edit; leafA and its caller re-solve.
    assert dense["sccs_resolved"] == 2
    assert dense["summaries_reused"] == 1
    assert 0 < dense["sccs_resolved"] < dense["summary_scc_total"]
    # CS/FI are keyed whole-program: any body change means a cold
    # re-solve (their facts are not caller-independent).
    for flavor in ("sensitive", "flowinsensitive"):
        assert partial[flavor].extras["dense"]["sccs_resolved"] == total

    again = analyze_incremental(lower(TWO_LEAF_EDITED, name="two"),
                                cache=cache)
    assert _digests(again) == baseline
    assert all(d["sccs_resolved"] == 0 for d in _counters(again).values())


def test_edit_back_replays_from_surviving_entries(tmp_path):
    """Reverting an edit finds the original entries still addressable —
    content keys make 'undo' a pure replay."""
    cache = str(tmp_path)
    cold = analyze_incremental(lower(TWO_LEAF, name="two"), cache=cache)
    analyze_incremental(lower(TWO_LEAF_EDITED, name="two"), cache=cache)
    reverted = analyze_incremental(lower(TWO_LEAF, name="two"),
                                   cache=cache)
    assert _digests(reverted) == _digests(cold)
    assert all(d["sccs_resolved"] == 0
               for d in _counters(reverted).values())


def test_flavor_subsets(tmp_path):
    """Asking for fewer flavors returns exactly those, CS pulling its
    CI prerequisite implicitly."""
    program = lower(TWO_LEAF, name="two")
    ci_only = analyze_incremental(program, ("insensitive",),
                                  cache=str(tmp_path))
    assert set(ci_only) == {"insensitive"}
    cs_only = analyze_incremental(program, ("sensitive",),
                                  cache=str(tmp_path))
    assert set(cs_only) == {"sensitive"}
    assert cs_only["sensitive"].extras["ci_result"] is not None
    with pytest.raises(Exception):
        analyze_incremental(program, ("nonsense",), cache=str(tmp_path))


def test_cache_disabled_is_plain_analysis(tmp_path, monkeypatch):
    """``cache=False`` and ``REPRO_NO_CACHE`` both degrade to cold
    whole-program solving with nothing persisted."""
    program = lower(TWO_LEAF, name="two")
    baseline = _whole_program_digests(program)

    off = analyze_incremental(program, cache=False)
    assert _digests(off) == baseline

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    env_off = analyze_incremental(program, cache=str(tmp_path))
    assert _digests(env_off) == baseline
    assert not (tmp_path / "summaries").exists()
    monkeypatch.delenv("REPRO_NO_CACHE")

    for results in (off, env_off):
        dense = results["insensitive"].extras["dense"]
        assert dense["summary_cache_hits"] == 0
        assert dense["sccs_resolved"] == dense["summary_scc_total"]
