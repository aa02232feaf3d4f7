"""Digest goldens: recorded values for the suite's result digests.

Every other equality test compares two runs of the same code (two
schedules, two cache states, a replay against a solve), so a change
to how a digest is computed would pass them all.  This module pins,
for each suite program under the plain and the hazard lowering, the
values themselves:

* per flavor (CI, CS, FI): ``solution_digest`` and the pair census;
* the SCC keys of the static call condensation and the program key;
* the ``summary_digest`` of every CI per-SCC summary and of the CS and
  FI whole-program summaries.

Regenerate the data file only for an intended format change:

    PYTHONPATH=src python tests/analysis/test_digest_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.analysis.stats import pair_census
from repro.analysis.summaries import (
    LocationCodec,
    body_hashes,
    call_condensation,
    context_hash,
    extract_summary,
    program_key,
    scc_keys,
    summary_digest,
)
# The oracle's name for the digest is the one every revision has had,
# so this file checks any revision against the same data.
from repro.fuzz.oracle import solution_digest
from repro.suite.registry import PROGRAM_NAMES, load_program

GOLDENS = Path(__file__).with_name("digest_goldens.json")

LOWERINGS = {"plain": False, "hazard": True}


def compute(name: str, hazard: bool) -> dict:
    """Every pinned value of one suite program under one lowering."""
    program = load_program(name, cache=False, hazard_model=hazard)
    ci = analyze_insensitive(program)
    results = {"insensitive": ci,
               "sensitive": analyze_sensitive(program, ci_result=ci),
               "flowinsensitive": analyze_flowinsensitive(program)}
    flavors = {}
    for flavor, result in results.items():
        census = pair_census(result)
        flavors[flavor] = {
            "digest": solution_digest(result),
            "census": [census.pointer, census.function, census.aggregate,
                       census.store, census.other, census.total]}
    codec = LocationCodec(program)
    ctx = context_hash(program, codec)
    bodies = body_hashes(program, codec)
    cond = call_condensation(program, [])
    everything = sorted(program.functions)
    return {
        "flavors": flavors,
        "scc_keys": scc_keys(program, cond, codec, ctx, bodies),
        "program_key": program_key(ctx, bodies),
        "ci_summaries": [
            summary_digest(extract_summary(ci, members, codec))
            for members in cond.sccs],
        "whole_program_summaries": {
            flavor: summary_digest(
                extract_summary(results[flavor], everything, codec))
            for flavor in ("sensitive", "flowinsensitive")},
    }


def _goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_every_suite_program_is_pinned():
    assert sorted(_goldens()) == sorted(PROGRAM_NAMES)


@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_digests_match_goldens(name, lowering):
    assert compute(name, LOWERINGS[lowering]) == \
        _goldens()[name][lowering]


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(
        {name: {lowering: compute(name, hazard)
                for lowering, hazard in LOWERINGS.items()}
         for name in PROGRAM_NAMES}, indent=1, sort_keys=True) + "\n")
