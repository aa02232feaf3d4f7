"""Edit-one-function replay gate for the incremental summary layer.

For each of three suite programs, this smoke runs the full
cold → replay → edit → partial cycle through
:func:`repro.analysis.incremental.analyze_incremental` against a
throwaway summary store and *fails* (nonzero exit) unless:

* the **cold** run's digests equal independent whole-program solves
  for every flavor (CI, CS, FI);
* the **replay** run (unchanged source, warm store) reproduces those
  digests with ``sccs_resolved = 0`` — nothing re-solved;
* after a same-line edit to one function, the **partial** run's CI
  re-solves strictly fewer SCCs than the program has
  (``0 < sccs_resolved < summary_scc_total``) and every flavor's
  digest equals a cold solve of the edited source.

The edits are same-line for historical reasons: summary keys v1
folded absolute source positions into body hashes, so a line-shifting
edit re-keyed every function below it.  Keys v2 hash modulo source
coordinates (see ``tests/analysis/test_incremental_insert.py`` for
the insert-one-line proof), so same-line is no longer load-bearing —
the strictly-fewer-SCCs gate below holds for shifting edits too.

Run directly (wired into ``make incremental-smoke``)::

    python benchmarks/incremental_smoke.py

Writes ``BENCH_incremental.json`` at the repo root.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.common import solution_digest  # noqa: E402
from repro.analysis.flowinsensitive import analyze_flowinsensitive  # noqa: E402
from repro.analysis.incremental import analyze_incremental  # noqa: E402
from repro.analysis.insensitive import analyze_insensitive  # noqa: E402
from repro.analysis.sensitive import analyze_sensitive  # noqa: E402
from repro.frontend.lower import lower_source  # noqa: E402
from repro.suite.registry import source_text  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_incremental.json"

#: program → unique same-line edit inside ``main`` (the dirty cone is
#: then exactly main's SCC, leaving every callee summary reusable).
EDITS = {
    "allroots": ("return total == 8 ? 0 : 1;",
                 "return total == 8 ? 0 : 2;"),
    "anagram": ("groups = groups + 1;",
                "groups = 1 + groups;"),
    "part": ("step(&left_cell, &right_cell, 0.25);",
             "step(&left_cell, &right_cell, 0.125);"),
}


def whole_program_digests(program):
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def digests(results):
    return {flavor: solution_digest(result)
            for flavor, result in results.items()}


def dense(results, flavor):
    return results[flavor].extras["dense"]


def run_cycle(name: str, failures: list) -> dict:
    source = source_text(name)
    old, new = EDITS[name]
    if source.count(old) != 1:
        failures.append(f"{name}: edit anchor {old!r} not unique")
        return {}
    edited_source = source.replace(old, new)

    def gate(label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            failures.append(f"{name}: {label} {detail}".rstrip())

    entry: dict = {"program": name}
    with tempfile.TemporaryDirectory(prefix="repro-inc-smoke-") as cache:
        program = lower_source(source, name=name)
        baseline = whole_program_digests(program)

        started = time.perf_counter()
        cold = analyze_incremental(program, cache=cache)
        entry["cold_seconds"] = round(time.perf_counter() - started, 4)
        total = dense(cold, "insensitive")["summary_scc_total"]
        entry["scc_total"] = total
        gate("cold digests", digests(cold) == baseline)

        started = time.perf_counter()
        replay = analyze_incremental(lower_source(source, name=name),
                                     cache=cache)
        entry["replay_seconds"] = round(time.perf_counter() - started, 4)
        gate("replay digests", digests(replay) == baseline)
        for flavor in replay:
            gate(f"replay resolved ({flavor})",
                 dense(replay, flavor)["sccs_resolved"] == 0,
                 f"= {dense(replay, flavor)['sccs_resolved']}")

        edited = lower_source(edited_source, name=name)
        edited_baseline = whole_program_digests(edited)
        started = time.perf_counter()
        partial = analyze_incremental(edited, cache=cache)
        entry["partial_seconds"] = round(time.perf_counter() - started, 4)
        gate("partial digests", digests(partial) == edited_baseline)
        resolved = dense(partial, "insensitive")["sccs_resolved"]
        entry["sccs_resolved_after_edit"] = resolved
        gate("edit re-solves something", resolved > 0)
        gate("edit re-solves strictly fewer SCCs than total",
             resolved < total, f"resolved={resolved} total={total}")
    return entry


def main() -> int:
    failures: list = []
    report = {"schema": 1, "kind": "incremental-smoke",
              "programs": [run_cycle(name, failures)
                           for name in sorted(EDITS)]}
    report["ok"] = not failures
    report["failures"] = failures
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for entry in report["programs"]:
        if entry:
            print(f"{entry['program']}: cold {entry['cold_seconds']}s, "
                  f"replay {entry['replay_seconds']}s, partial "
                  f"{entry['partial_seconds']}s "
                  f"({entry['sccs_resolved_after_edit']}/"
                  f"{entry['scc_total']} SCCs after edit)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"incremental smoke ok -> {OUTPUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
