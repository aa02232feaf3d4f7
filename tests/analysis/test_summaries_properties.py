"""Algebraic properties of the summary layer.

The incremental driver's correctness argument leans on three
properties that are checked here directly rather than end-to-end:

* the summary lattice behaves — ``join_summaries`` is an idempotent,
  commutative upper bound under ``summary_leq``;
* content keys are pure functions of content — two independent
  lowerings of the same source agree on every body hash, SCC key, and
  program key, and the extracted summaries digest identically no
  matter which schedule (or how many solver jobs) produced the
  solution;
* keys are *callee*-closed — editing one function re-keys exactly its
  own SCC and the transitive caller cone, nothing below it.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.summaries import (
    LocationCodec,
    body_hashes,
    call_condensation,
    context_hash,
    extract_summary,
    join_summaries,
    program_key,
    scc_keys,
    summary_digest,
    summary_leq,
)
from repro.errors import AnalysisError

from ..conftest import lower
from .test_summaries_differential import TWO_LEAF, TWO_LEAF_EDITED

#: Deeper chain for transitive re-keying: main → mid → leaf.
CHAIN = """
int g;
int *leaf(void) { return &g; }
int *mid(void) { return leaf(); }
int main(void) { int *p = mid(); *p = 1; return 0; }
"""

#: Same-line edit: node origins carry source positions, so inserting a
#: line would (conservatively, but correctly) re-key everything below
#: the edit too — this property wants the minimal cone.
CHAIN_LEAF_EDITED = CHAIN.replace("{ return &g; }",
                                  "{ g = 1; return &g; }")
assert CHAIN_LEAF_EDITED != CHAIN


def _keyed(source: str, name: str = "chain"):
    """(program, codec, ctx, bodies, condensation, keys) for a source."""
    program = lower(source, name=name)
    codec = LocationCodec(program)
    ctx = context_hash(program, codec)
    bodies = body_hashes(program, codec)
    cond = call_condensation(program)
    keys = scc_keys(program, cond, codec, ctx, bodies)
    return program, codec, ctx, bodies, cond, keys


def _scc_key_by_function(cond, keys):
    return {name: keys[index]
            for index, members in enumerate(cond.sccs)
            for name in members}


def _leaf_summary(source: str):
    program = lower(source, name="two")
    codec = LocationCodec(program)
    result = analyze_insensitive(program)
    return extract_summary(result, ["leafA"], codec)


# -- lattice ----------------------------------------------------------------


def test_join_is_idempotent_and_reflexive():
    s = _leaf_summary(TWO_LEAF)
    assert summary_leq(s, s)
    assert summary_digest(join_summaries(s, s)) == summary_digest(s)


def test_join_is_an_upper_bound_and_commutes():
    a = _leaf_summary(TWO_LEAF)
    b = _leaf_summary(TWO_LEAF_EDITED)
    assert summary_digest(a) != summary_digest(b)
    ab, ba = join_summaries(a, b), join_summaries(b, a)
    assert summary_leq(a, ab) and summary_leq(b, ab)
    assert summary_digest(ab) == summary_digest(ba)
    # Joining the bound back in changes nothing: x ⊔ (x ⊔ y) = x ⊔ y.
    assert summary_digest(join_summaries(a, ab)) == summary_digest(ab)


def test_join_rejects_mismatched_function_sets():
    program = lower(TWO_LEAF, name="two")
    codec = LocationCodec(program)
    result = analyze_insensitive(program)
    a = extract_summary(result, ["leafA"], codec)
    b = extract_summary(result, ["leafB"], codec)
    with pytest.raises(AnalysisError):
        join_summaries(a, b)


# -- key purity -------------------------------------------------------------


def test_keys_are_pure_functions_of_source():
    """Two independent lowerings agree on every hash — keys never
    depend on object identity, uid assignment, or dict order."""
    _, _, ctx1, bodies1, cond1, keys1 = _keyed(CHAIN)
    _, _, ctx2, bodies2, cond2, keys2 = _keyed(CHAIN)
    assert ctx1 == ctx2
    assert bodies1 == bodies2
    assert cond1.sccs == cond2.sccs
    assert keys1 == keys2
    assert program_key(ctx1, bodies1) == program_key(ctx2, bodies2)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda p: analyze_insensitive(p, schedule="batched"),
                 id="batched"),
    pytest.param(lambda p: analyze_insensitive(p, schedule="fifo"),
                 id="fifo"),
])
def test_summary_digest_is_schedule_independent(solve):
    """The same fixpoint yields digest-identical summaries no matter
    which schedule computed it."""
    program = lower(TWO_LEAF, name="two")
    codec = LocationCodec(program)
    baseline = extract_summary(analyze_insensitive(program),
                               sorted(program.functions), codec)
    result = solve(lower(TWO_LEAF, name="two"))
    summary = extract_summary(result, sorted(result.program.functions),
                              LocationCodec(result.program))
    assert summary_digest(summary) == summary_digest(baseline)


# -- key sensitivity --------------------------------------------------------


def test_editing_a_leaf_rekeys_exactly_the_caller_cone():
    _, _, _, bodies1, cond1, keys1 = _keyed(CHAIN)
    _, _, _, bodies2, cond2, keys2 = _keyed(CHAIN_LEAF_EDITED)
    by_fn1 = _scc_key_by_function(cond1, keys1)
    by_fn2 = _scc_key_by_function(cond2, keys2)
    # The edit touches only leaf's body...
    assert bodies1["leaf"] != bodies2["leaf"]
    assert bodies1["mid"] == bodies2["mid"]
    assert bodies1["main"] == bodies2["main"]
    # ...but re-keys the whole transitive caller cone above it.
    assert by_fn1["leaf"] != by_fn2["leaf"]
    assert by_fn1["mid"] != by_fn2["mid"]
    assert by_fn1["main"] != by_fn2["main"]


def test_sibling_keys_survive_an_edit():
    _, _, _, _, cond1, keys1 = _keyed(TWO_LEAF, name="two")
    _, _, _, _, cond2, keys2 = _keyed(TWO_LEAF_EDITED, name="two")
    by_fn1 = _scc_key_by_function(cond1, keys1)
    by_fn2 = _scc_key_by_function(cond2, keys2)
    assert by_fn1["leafA"] != by_fn2["leafA"]
    assert by_fn1["main"] != by_fn2["main"]
    assert by_fn1["leafB"] == by_fn2["leafB"]  # untouched sibling


def test_program_key_changes_on_any_body_edit():
    _, _, ctx1, bodies1, _, _ = _keyed(TWO_LEAF, name="two")
    _, _, ctx2, bodies2, _, _ = _keyed(TWO_LEAF_EDITED, name="two")
    assert program_key(ctx1, bodies1) != program_key(ctx2, bodies2)


def test_condensation_orders_callees_first():
    program, _, _, _, cond, _ = _keyed(CHAIN)
    index_of = {name: i for i, members in enumerate(cond.sccs)
                for name in members}
    for caller_index, callee_indices in cond.callees.items():
        for callee_index in callee_indices:
            assert callee_index < caller_index, \
                "callees must precede callers in SCC order"
    assert index_of["leaf"] < index_of["mid"] < index_of["main"]
