"""Determinism + soundness gate for dependence-graph slicing.

For three suite programs this smoke computes one backward slice per
program through :func:`repro.runner.run` under every
combination that has ever produced nondeterminism elsewhere in the
codebase — batched/FIFO schedules, inline vs process-pool
(``jobs=2, force_pool``), lowering-cache cold vs warm — and *fails*
(nonzero exit) unless:

* every configuration reproduces the baseline's slice digest AND the
  full dependence-graph digest, byte for byte;
* one generated fuzz program passes the slice-soundness oracle leg
  (every concrete def→use flow covered by a ``mem`` edge) with at
  least one flow actually checked.

The slice criteria are discovered, not hard-coded: each program
slices from the source line of its first lookup node, so suite edits
cannot silently turn the gate into a no-op.

Run directly (wired into ``make slice-smoke``)::

    python benchmarks/slice_smoke.py

Writes ``BENCH_slice.json`` at the repo root.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.depgraph import build_depgraph  # noqa: E402
from repro.analysis.insensitive import analyze_insensitive  # noqa: E402
from repro.fuzz.generator import generate_program  # noqa: E402
from repro.fuzz.oracle import check_program  # noqa: E402
from repro.runner import Request, run  # noqa: E402
from repro.suite.registry import load_program  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_slice.json"

PROGRAMS = ("part", "lex315", "loader")

#: (label, request fields, run options) — the baseline first.
CONFIGS = (
    ("batched", {}, {"jobs": 1}),
    ("fifo", {"schedule": "fifo"}, {"jobs": 1}),
    ("jobs2", {}, {"jobs": 2, "force_pool": True}),
    ("nocache", {"cache": False}, {"jobs": 1}),
)

FUZZ_SEED = 0


def discover_criterion(name: str) -> str:
    """file:line of the program's first lookup node (sorted order)."""
    graph = build_depgraph(analyze_insensitive(
        load_program(name, cache=False)))
    origins = sorted(origin for _, (_, kind, origin) in
                     sorted(graph.nodes.items())
                     if kind == "lookup" and origin)
    if not origins:
        raise SystemExit(f"{name}: no lookup nodes to slice from")
    path, _, line = origins[0].rpartition(":")
    return f"{Path(path).name}:{line}"


def slice_digests(name: str, criterion: str, fields: dict, options: dict):
    request = Request.build("slice", name, criterion=criterion, **fields)
    report = run([request], **options)
    if not report.ok:
        for outcome in report.outcomes:
            if not outcome.ok:
                print(f"FAIL {name}: {outcome.error}", file=sys.stderr)
        raise SystemExit(1)
    (outcome,) = report.outcomes
    payload = outcome.payload
    return {"slice": payload["slice"]["digest"],
            "graph": payload["graph"]["digest"],
            "size": payload["slice"]["size"]}


def main() -> int:
    started = time.perf_counter()
    failures = []
    doc = {"programs": {}, "fuzz": {}}

    for name in PROGRAMS:
        criterion = discover_criterion(name)
        entry = {"criterion": criterion, "configs": {}}
        baseline = None
        for label, fields, options in CONFIGS:
            digests = slice_digests(name, criterion, fields, options)
            entry["configs"][label] = digests
            if baseline is None:
                baseline = digests
                continue
            for what in ("slice", "graph"):
                if digests[what] != baseline[what]:
                    failures.append(
                        f"{name}: {what} digest under {label} "
                        f"({digests[what][:12]}) differs from batched "
                        f"({baseline[what][:12]})")
        entry["size"] = baseline["size"]
        doc["programs"][name] = entry
        print(f"{name}: slice of {criterion} — {baseline['size']} "
              f"nodes, {len(CONFIGS)} configs agree "
              f"({baseline['slice'][:12]})")

    program = generate_program(FUZZ_SEED)
    check = check_program(program.source, name=program.name,
                          fixpoint=False, checkers=False)
    flows = check.stats.get("slice_flows_checked", 0)
    doc["fuzz"] = {"seed": FUZZ_SEED, "name": program.name,
                   "ok": check.ok, "flows_checked": flows,
                   "violations": [str(v) for v in check.violations]}
    if not check.ok:
        failures.append(
            f"fuzz seed {FUZZ_SEED}: {len(check.violations)} oracle "
            f"violation(s): {check.violations[0]}")
    elif flows == 0:
        failures.append(
            f"fuzz seed {FUZZ_SEED}: slice oracle checked zero flows "
            f"(tooth lost)")
    else:
        print(f"fuzz seed {FUZZ_SEED}: {flows} concrete def→use "
              f"flow(s) covered by dependence edges")

    doc["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    doc["ok"] = not failures
    OUTPUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT.name} in {doc['elapsed_seconds']}s")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
