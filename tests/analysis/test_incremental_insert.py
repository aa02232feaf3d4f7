"""Origin-independence of summary keys: line-shifting edits are free.

Before summaries v2, body hashes folded in each node's ``file:line``
origin and heap-site labels kept their absolute allocation line, so
inserting one line near the top of a file re-keyed (and re-solved)
every function below the edit — the worst case for exactly the edits
people make most.  v2 hashes bodies modulo absolute coordinates and
decodes heap cells through coordinate-stripped structural keys, so:

* a pure line shift (blank/comment line) re-solves *nothing*;
* a real one-line edit re-solves only the edited SCC, even though the
  edit shifts every function below it — including a ``malloc`` leaf
  whose heap label embeds its (now different) allocation line.
"""

from __future__ import annotations

from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.incremental import analyze_incremental

import repro

from ..conftest import lower

#: ``main`` sits at the *top* of the file so any edit inside it shifts
#: the line numbers of every function below — the callee-closed keys
#: of ``alloc_leaf``/``global_leaf`` must not notice.  ``alloc_leaf``
#: mallocs, planting an absolute line number inside a location label.
TOP_MAIN = """
int ga;
int main(void) {
  int *a = alloc_leaf();
  int *b = global_leaf();
  *a = 1;
  *b = 2;
  return 0;
}
int *alloc_leaf(void) {
  int *p = (int *)malloc(sizeof(int));
  return p;
}
int *global_leaf(void) { return &ga; }
"""

#: A line-shift-only edit: every token below moves down one line.
SHIFTED = TOP_MAIN.replace("int ga;", "int ga;\n/* a comment */")
assert SHIFTED != TOP_MAIN

#: A real edit *inside main only*: the second leaf call disappears,
#: which still shifts nothing (same line count) — so pair it with the
#: comment insertion to make the edit both real and line-shifting.
EDITED = SHIFTED.replace("*a = 1;", "*a = 3;")
assert EDITED != SHIFTED


def _digests(results):
    return {flavor: solution_digest(result)
            for flavor, result in results.items()}


def _dense(results, flavor="insensitive"):
    return results[flavor].extras["dense"]


def _whole_program_digests(program):
    ci = repro.analyze_insensitive(program)
    cs = repro.analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def test_inserted_line_replays_everything(tmp_path):
    """A comment inserted above every function is a no-op for the
    store: all SCCs replay, zero re-solves — and the replayed solution
    is digest-identical to a fresh whole-program solve of the shifted
    source (the shift *does* rename heap locations, so replay must
    decode stored summaries against the new labels)."""
    cache = str(tmp_path)
    cold = analyze_incremental(lower(TOP_MAIN, name="ins"), cache=cache)
    total = _dense(cold)["summary_scc_total"]
    assert total == 3  # main, alloc_leaf, global_leaf

    shifted_program = lower(SHIFTED, name="ins")
    baseline = _whole_program_digests(shifted_program)
    shifted = analyze_incremental(shifted_program, cache=cache)
    assert _digests(shifted) == baseline
    for flavor in shifted:
        assert _dense(shifted, flavor)["sccs_resolved"] == 0, flavor
        assert _dense(shifted, flavor)["summaries_reused"] == \
            _dense(shifted, flavor)["summary_scc_total"], flavor


def test_one_line_edit_resolves_only_the_edited_scc(tmp_path):
    """An edit inside ``main`` that also shifts both leaves' line
    numbers re-solves main's SCC alone; the malloc leaf's summary —
    heap label line and all — replays from the store."""
    cache = str(tmp_path)
    analyze_incremental(lower(TOP_MAIN, name="ins"), cache=cache)

    edited_program = lower(EDITED, name="ins")
    baseline = _whole_program_digests(edited_program)
    partial = analyze_incremental(edited_program, cache=cache)
    assert _digests(partial) == baseline

    dense = _dense(partial)
    assert dense["sccs_resolved"] == 1  # main only
    assert dense["summaries_reused"] == dense["summary_scc_total"] - 1

    # And the republished entries replay cleanly on the next run.
    again = analyze_incremental(lower(EDITED, name="ins"), cache=cache)
    assert _digests(again) == baseline
    assert _dense(again)["sccs_resolved"] == 0


def test_heap_label_shift_does_not_fault_the_leaf(tmp_path):
    """Isolate the heap-label case: shift *only* the malloc leaf (edit
    nothing), then shift it while editing ``main`` — in both runs the
    leaf's stored summary must decode against the new heap label."""
    cache = str(tmp_path)
    analyze_incremental(lower(TOP_MAIN, name="heap"), cache=cache)

    shifted_leaf = TOP_MAIN.replace("int *alloc_leaf(void) {",
                                    "/* shifted */\nint *alloc_leaf(void) {")
    moved_program = lower(shifted_leaf, name="heap")
    moved = analyze_incremental(moved_program, cache=cache)
    assert _digests(moved) == _whole_program_digests(moved_program)
    assert _dense(moved)["sccs_resolved"] == 0
