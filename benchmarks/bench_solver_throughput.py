"""Solver throughput and end-to-end sweep benchmark.

Measures, and records in ``BENCH_solver.json`` at the repo root
(report ``schema`` 4):

* **Solver throughput** — the CI fixpoint over the adversarial
  copy-chain workload (solver-bound: quadratic pair sets flowing
  through a linear store chain), under both schedules: ``batched``
  runs the dense bitset fact engine and ``fifo`` the object-at-a-time
  reference engine.  Reported per schedule as wall-clock, facts/sec
  (transfers per second), a solution digest, and — for ``batched`` —
  the representation counters (fact ids interned, bitset words,
  kernel calls, decode calls).
* **Suite sweep** — the full CI+CS analysis of the suite programs,
  comparing the pre-batching configuration (cold lowering, FIFO
  schedule, one process) against the optimized path (persistent
  lowering cache warm, batched dense engine, inline for tiny sweeps
  or ``--jobs`` workers for large ones).
* **Per-flavor leg** — CI, CS and FI solves of the fresh-program class
  (``fuzz.generator.generate_program(seed, 500)``, seeds 1–13; the
  daemon benchmark's never-seen sources, whose CS facts are mostly
  unconditional), under both schedules: solve seconds, ``transfers``
  and ``meets`` per flavor and schedule, summed over the programs.

Run directly::

    python benchmarks/bench_solver_throughput.py            # full
    python benchmarks/bench_solver_throughput.py --smoke    # fast gate

The ``--smoke`` mode runs a reduced workload (seconds, not minutes)
and is wired into ``make bench-smoke`` / ``make test`` as a regression
gate.  Both modes *fail* (nonzero exit) when the dense engine's
solution digest differs from the FIFO reference's (on the copy chain,
or for any flavor of the per-flavor leg), when the batched entry is
missing the representation counters, or when the warm optimized sweep
fails to beat the cold baseline (``end_to_end_speedup < 1.0``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.common import solution_digest  # noqa: E402
from repro.analysis.flowinsensitive import (  # noqa: E402
    analyze_flowinsensitive,
)
from repro.analysis.insensitive import analyze_insensitive  # noqa: E402
from repro.analysis.sensitive import analyze_sensitive  # noqa: E402
from repro.cpus import available_cpus  # noqa: E402
from repro.frontend.cache import resolve_cache_dir  # noqa: E402
from repro.frontend.pipeline import lower_source  # noqa: E402
from repro.fuzz.generator import generate_program  # noqa: E402
from repro.perf import PhaseTimer, best_of  # noqa: E402
from repro.runner import (  # noqa: E402
    INLINE_TASK_THRESHOLD, Request, run,
)
from repro.suite.adversarial import load_copy_chain  # noqa: E402
from repro.suite.registry import PROGRAM_NAMES  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_solver.json"

#: Measurement order: the dense engine first, FIFO last as the slow
#: reference it is gated against.
VARIANTS = ("batched", "fifo")

#: Representation counters the dense entry must carry.
DENSE_COUNTERS = ("fact_ids", "bitset_words", "kernel_calls",
                  "decode_calls")


def bench_solver(width: int, length: int, repeats: int) -> dict:
    """CI fixpoint over copy_chain under both schedules."""
    program = load_copy_chain(width, length)
    # Warm the per-program fact table (dense id interning) so every
    # schedule times the solver proper, not the one-time first-touch
    # interning of the shared program.
    analyze_insensitive(program, schedule="batched")
    report = {"workload": f"copy_chain({width}, {length})"}
    digests = {}
    for schedule in VARIANTS:
        def run(schedule=schedule):
            return analyze_insensitive(program, schedule=schedule)
        # The FIFO reference is ~2 orders of magnitude slower per
        # repeat; a handful of runs pins it down, and spending the
        # full repeat budget there would dominate the bench's
        # wall-clock for no extra precision.
        runs = repeats if schedule != "fifo" else min(repeats, 5)
        seconds, result = best_of(run, runs)
        digests[schedule] = solution_digest(result)
        entry = {
            "seconds": round(seconds, 6),
            "transfers": result.counters.transfers,
            "facts_per_sec": round(result.counters.transfers / seconds),
            "digest": digests[schedule][:16],
        }
        dense = result.extras.get("dense")
        if dense is not None:
            entry["dense"] = dict(dense)
        report[schedule] = entry
    report["digests_identical"] = len(set(digests.values())) == 1
    report["batched_speedup_vs_fifo"] = round(
        report["fifo"]["seconds"] / report["batched"]["seconds"], 3)
    return report


#: Generator budget of the fresh-program class.
FRESH_MAX_NODES = 500


def bench_flavors(seeds, repeats: int) -> dict:
    """CI, CS and FI solves of fresh-class programs, per schedule.

    Each program is lowered once and solved once per schedule before
    timing, so the timed repeats measure the solvers on a warm fact
    table, as repeat solves of one program run in production."""
    flavors = ("insensitive", "sensitive", "flowinsensitive")
    totals = {flavor: {schedule: {"seconds": 0.0, "transfers": 0,
                                  "meets": 0}
                       for schedule in VARIANTS} for flavor in flavors}
    mismatches = []
    for seed in seeds:
        source = generate_program(seed, FRESH_MAX_NODES).source
        program = lower_source(source, f"fresh{seed}.c")
        digests = {}
        for schedule in VARIANTS:
            ci = analyze_insensitive(program, schedule=schedule)
            solvers = {
                "insensitive": lambda: analyze_insensitive(
                    program, schedule=schedule),
                "sensitive": lambda: analyze_sensitive(
                    program, ci_result=ci, schedule=schedule),
                "flowinsensitive": lambda: analyze_flowinsensitive(
                    program, schedule=schedule),
            }
            for flavor in flavors:
                seconds, result = best_of(solvers[flavor], repeats)
                entry = totals[flavor][schedule]
                entry["seconds"] += seconds
                entry["transfers"] += result.counters.transfers
                entry["meets"] += result.counters.meets
                digests[flavor, schedule] = solution_digest(result)
        for flavor in flavors:
            if digests[flavor, "batched"] != digests[flavor, "fifo"]:
                mismatches.append(f"{flavor} on seed {seed}")
    for by_schedule in totals.values():
        for entry in by_schedule.values():
            entry["seconds"] = round(entry["seconds"], 6)
    return {"workload": f"generate_program(seed, {FRESH_MAX_NODES}), "
                        f"seeds {list(seeds)}",
            "flavors": totals,
            "digest_mismatches": mismatches}


def bench_sweep(names, jobs: int, repeats: int) -> dict:
    """Full CI+CS sweep: pre-batching configuration vs optimized."""
    cache_dir = resolve_cache_dir(True)
    # The runner honors explicit over-subscription (callers may want
    # process isolation), but for a throughput measurement extra
    # workers beyond the cores are pure fork/IPC overhead — on a
    # single-CPU container a forced 2-worker pool *loses* to serial.
    jobs_requested = jobs
    # available_cpus, not os.cpu_count: the machine count oversubscribes
    # inside affinity/cgroup-restricted containers.
    jobs = max(1, min(jobs, available_cpus()))

    def sweep(jobs, schedule, cache):
        return run([Request.build(
            "analyze", name, flavors=("insensitive", "sensitive"),
            schedule=schedule, cache=cache) for name in names],
            jobs, fail_fast=True)

    def baseline():
        # The seed's behavior: lower every program from source, FIFO
        # worklist, one process, no persistence.
        return sweep(1, "fifo", False)

    def optimized():
        # The same sweep on the production engine, shipping back the
        # per-(program, flavor) telemetry records the workers produced,
        # so BENCH_solver.json shares the --telemetry schema.  Sweeps
        # of <= INLINE_TASK_THRESHOLD programs run inline — executor
        # setup would otherwise dominate and *lose* to the baseline.
        return sweep(jobs, "batched", True)

    optimized()  # warm the lowering cache (and allocator)
    base_seconds, _ = best_of(baseline, repeats)
    opt_seconds, report = best_of(optimized, repeats)
    results = report.results

    ran_inline = (jobs == 1
                  or len(names) <= INLINE_TASK_THRESHOLD)
    effective_jobs = 1 if ran_inline else max(1, min(jobs, len(names)))
    return {
        "programs": list(names),
        "flavors": ["insensitive", "sensitive"],
        "jobs_requested": jobs_requested,
        "jobs_effective": effective_jobs,
        "ran_inline": ran_inline,
        "cache_dir": str(cache_dir) if cache_dir else None,
        "baseline_cold_fifo_serial_seconds": round(base_seconds, 6),
        "optimized_warm_batched_parallel_seconds": round(opt_seconds, 6),
        "end_to_end_speedup": round(base_seconds / opt_seconds, 3),
        "ci_transfers_total": sum(
            by_flavor["insensitive"].counters.transfers
            for by_flavor in results.values()),
        # repro.telemetry records (schema v1), one per (program, flavor).
        "telemetry": report.records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload for the CI gate")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the sweep (default: 4)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats (default: 3, smoke: 1)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"JSON report path (default: {OUTPUT})")
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.smoke else 3)
    if args.smoke:
        width, length = 24, 16
        names = ["anagram", "backprop", "span"]
        seeds = range(1, 4)
    else:
        width, length = 60, 40
        names = list(PROGRAM_NAMES)
        seeds = range(1, 14)

    timer = PhaseTimer()
    with timer.phase("solver"):
        solver = bench_solver(width, length, repeats)
    with timer.phase("sweep"):
        # The sweep times second-scale end-to-end runs against a
        # coarse >= 1x gate; the solver's high repeat counts (hunting
        # best-case millisecond slices) would multiply its wall-clock
        # for no extra signal.
        sweep = bench_sweep(names, args.jobs, min(repeats, 10))
    with timer.phase("flavors"):
        flavors = bench_flavors(seeds, min(repeats, 3))

    report = {
        "schema": 4,
        "generated_unix": int(time.time()),
        "smoke": args.smoke,
        "machine": {
            "cpus": os.cpu_count(),
            "cpus_available": available_cpus(),
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "bench_seconds": {k: round(v, 3)
                          for k, v in timer.as_dict().items()},
        "solver": solver,
        "sweep": sweep,
        "flavors": flavors,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for schedule in VARIANTS:
        entry = solver[schedule]
        print(f"solver[{schedule}]: {entry['seconds']:.6f}s, "
              f"{entry['facts_per_sec']:,} facts/s")
    print(f"solver: batched {solver['batched_speedup_vs_fifo']}x vs fifo")
    print(f"sweep: {sweep['baseline_cold_fifo_serial_seconds']:.3f}s "
          f"cold/fifo/serial -> "
          f"{sweep['optimized_warm_batched_parallel_seconds']:.3f}s "
          f"warm/batched/"
          f"{'inline' if sweep['ran_inline'] else 'jobs=' + str(sweep['jobs_effective'])} "
          f"({sweep['end_to_end_speedup']}x)")
    for flavor, by_schedule in flavors["flavors"].items():
        print(f"flavors[{flavor}]: " + ", ".join(
            f"{schedule} {entry['seconds']:.3f}s "
            f"({entry['transfers']:,} transfers, {entry['meets']:,} meets)"
            for schedule, entry in by_schedule.items()))
    print(f"wrote {args.output}")

    failures = []
    if not solver["digests_identical"]:
        short = {key: solver[key]["digest"] for key in VARIANTS}
        failures.append(
            f"dense solution digest differs from the fifo reference: "
            f"{short}")
    if flavors["digest_mismatches"]:
        failures.append(
            "batched solution digest differs from the fifo reference: "
            + ", ".join(flavors["digest_mismatches"]))
    missing = [c for c in DENSE_COUNTERS
               if c not in solver["batched"].get("dense", {})]
    if missing:
        failures.append(
            f"solver[batched] is missing dense counters: {missing}")
    if sweep["end_to_end_speedup"] < 1.0:
        failures.append(
            "optimized warm sweep is slower than the cold baseline "
            f"(speedup {sweep['end_to_end_speedup']})")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
