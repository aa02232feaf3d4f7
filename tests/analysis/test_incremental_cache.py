"""Durability of the summary store: damage never changes results.

Every way a persisted entry can go bad — evicted, truncated, filled
with garbage, version-skewed, or (worst) still loadable but carrying
*wrong facts* — must degrade to re-solving, never to wrong answers.
The first three are detected at load time (unpickle fails → unlink,
miss); the last is what the incremental engine's replay validation
exists for: a poisoned entry composes into a solution that fails the
growth/coverage checks and falls back to a cold solve.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.incremental import SummaryStore, analyze_incremental
from repro.analysis.summaries import SUMMARY_VERSION

from ..conftest import lower
from .test_summaries_differential import TWO_LEAF


def _digests(results):
    return {flavor: solution_digest(result)
            for flavor, result in results.items()}


@pytest.fixture
def warm_store(tmp_path):
    """A populated store plus the cold run's digests and counters."""
    cold = analyze_incremental(lower(TWO_LEAF, name="two"),
                               cache=str(tmp_path))
    return tmp_path, _digests(cold), \
        cold["insensitive"].extras["dense"]["summary_scc_total"]


def _entries(root, flavor):
    return sorted((root / "summaries").glob(f"{flavor}-*.pkl"))


def _rerun(root):
    return analyze_incremental(lower(TWO_LEAF, name="two"),
                               cache=str(root))


def test_store_layout(warm_store):
    root, _, total = warm_store
    assert len(_entries(root, "insensitive")) == total
    assert len(_entries(root, "sensitive")) == 1
    assert len(_entries(root, "flowinsensitive")) == 1
    assert len(sorted((root / "summaries").glob("manifest-*.pkl"))) == 1


@pytest.mark.parametrize("damage", [
    pytest.param(lambda p: p.unlink(), id="evicted"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:7]),
                 id="truncated"),
    pytest.param(lambda p: p.write_bytes(b"\x00not a pickle"),
                 id="garbage"),
])
def test_damaged_ci_entry_resolves_cleanly(warm_store, damage):
    root, digests, total = warm_store
    victim = _entries(root, "insensitive")[len(_entries(
        root, "insensitive")) // 2]
    damage(victim)
    results = _rerun(root)
    assert _digests(results) == digests
    dense = results["insensitive"].extras["dense"]
    # The victim's caller cone re-solves; at least one SCC survives.
    assert 0 < dense["sccs_resolved"] <= total
    assert dense["sccs_resolved"] + dense["summaries_reused"] == total
    # A damaged (non-evicted) file is unlinked on first load...
    again = _rerun(root)
    # ...and the re-solve re-published it, so the next run replays.
    assert _digests(again) == digests
    assert again["insensitive"].extras["dense"]["sccs_resolved"] == 0


@pytest.mark.parametrize("flavor", ["sensitive", "flowinsensitive"])
def test_damaged_whole_program_entry_goes_cold(warm_store, flavor):
    root, digests, total = warm_store
    entry, = _entries(root, flavor)
    entry.write_bytes(b"\x00not a pickle")
    results = _rerun(root)
    assert _digests(results) == digests
    dense = results[flavor].extras["dense"]
    assert dense["sccs_resolved"] == total
    assert dense["summary_cache_hits"] == 0
    assert _rerun(root)[flavor].extras["dense"]["sccs_resolved"] == 0


def test_version_skew_is_a_miss(warm_store):
    root, digests, _ = warm_store
    for entry in _entries(root, "insensitive"):
        payload = pickle.loads(entry.read_bytes())
        payload["version"] = SUMMARY_VERSION + 1
        entry.write_bytes(pickle.dumps(payload))
    results = _rerun(root)
    assert _digests(results) == digests
    dense = results["insensitive"].extras["dense"]
    assert dense["summary_cache_hits"] == 0
    assert dense["sccs_resolved"] == dense["summary_scc_total"]


def test_poisoned_entry_fails_validation_and_goes_cold(warm_store):
    """A key-valid entry with facts stripped out is the failure load
    checks cannot see — replay validation must catch the coverage gap
    and fall back to a cold solve with unchanged digests."""
    root, digests, total = warm_store
    store = SummaryStore(root)
    poisoned = 0
    for entry in _entries(root, "insensitive"):
        payload = pickle.loads(entry.read_bytes())
        if payload["outputs"]:
            payload["outputs"] = []
            entry.write_bytes(pickle.dumps(payload))
            poisoned += 1
    assert poisoned, "fixture must have at least one non-empty summary"
    results = _rerun(root)
    assert _digests(results) == digests
    dense = results["insensitive"].extras["dense"]
    assert dense["sccs_resolved"] == total  # cold fallback
    assert dense["summary_cache_hits"] == total  # they all *loaded*
    del store


def test_corrupt_manifest_only_costs_convergence(warm_store):
    """A bad manifest loses the remembered dynamic call edges — worth
    at most one extra convergence round, never wrong answers."""
    root, digests, _ = warm_store
    manifest, = sorted((root / "summaries").glob("manifest-*.pkl"))
    manifest.write_bytes(b"\x00not a pickle")
    results = _rerun(root)
    assert _digests(results) == digests


def test_store_gc_evicts_to_budget_and_counts(warm_store):
    """A byte-capped store sheds oldest entries after each publish,
    reports the count in ``dense["summary_evictions"]``, and the
    evicted entries degrade to re-solves — never wrong answers."""
    root, digests, total = warm_store
    before = len(list((root / "summaries").glob("*.pkl")))
    # A budget below one entry's size forces eviction down to ~nothing.
    program = lower(TWO_LEAF, name="two")
    results = analyze_incremental(program, cache=str(root),
                                  store_max_bytes=64)
    assert _digests(results) == digests
    dense = results["insensitive"].extras["dense"]
    assert dense["summary_evictions"] > 0
    after = len(list((root / "summaries").glob("*.pkl")))
    assert after < before
    # The gutted store still converges correctly on the next run.
    again = analyze_incremental(program, cache=str(root))
    assert _digests(again) == digests


def test_store_budget_env_is_honored(warm_store, monkeypatch):
    root, digests, _ = warm_store
    monkeypatch.setenv("REPRO_SUMMARY_CACHE_MB", "0")  # ≤0 → unbounded
    results = analyze_incremental(lower(TWO_LEAF, name="two"),
                                  cache=str(root))
    assert _digests(results) == digests
    assert results["insensitive"].extras["dense"].get(
        "summary_evictions", 0) == 0


def test_empty_store_directory_is_cold(tmp_path):
    (tmp_path / "summaries").mkdir()
    program = lower(TWO_LEAF, name="two")
    results = analyze_incremental(program, cache=str(tmp_path))
    dense = results["insensitive"].extras["dense"]
    assert dense["summary_cache_hits"] == 0
    assert dense["sccs_resolved"] == dense["summary_scc_total"]
