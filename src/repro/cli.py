"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``analyze FILE [--sensitivity X] [--show-pairs] [--modref]
  [--defuse] [--deadstore] [--format text|json]`` — run a points-to
  analysis over a C file and print a summary; the client flags route
  mod/ref, def/use, and dead-store reports through the same
  deterministic text/JSON machinery.
* ``dump FILE [--function NAME]`` — print the lowered VDG.
* ``export FILE`` — serialize one analysis result as JSON.
* ``experiment ID`` — regenerate one of the paper's tables/figures
  (fig2, fig3, fig4, fig6, fig7, cost, opt42, perf43, struct51, gap,
  checkers, slicing).
* ``explain FILE`` — show derivations for indirect operations.
* ``suite`` — list the benchmark suite programs.
* ``check [FILE ...] [--checkers IDS] [--flavor X] [--format F]`` —
  run the bug-finding checkers (null dereference, use-after-return,
  uninitialized read, wild indirect call, dead store) over the suite
  or given files; ``--format sarif`` emits a SARIF 2.1.0 log.
* ``slice TARGET --criterion file:line | --from-finding KEY`` —
  compute a backward/forward program slice over the alias-aware
  dependence graph (``--format text|json|dot``).
* ``fuzz [--seed S] [--count N]`` — differential fuzzing: generate
  random pointer programs and check concrete ⊆ CS ⊆ CI ⊆ FI at every
  indirect operation, plus determinism and fixpoint oracles.
* ``serve [--port P] [--workers N] [--max-memory-mb MB]`` — run the
  analysis daemon: HTTP/JSON endpoints ``analyze``/``check``/
  ``query``/``slice``/``metrics`` over in-memory LRU cache tiers, request
  coalescing, and the fault-isolated process pool (see
  :mod:`repro.serve`).

Shared flags are declared once.  Every subcommand that solves
(``analyze``, ``experiment``, ``check``, ``slice``, ``serve``) takes
``--schedule batched|fifo`` — the dense production engine (default) or
the one-fact reference queue, which reach identical solutions — and
``--no-cache``; all but ``serve`` take ``--jobs N``, and ``analyze``,
``check`` and ``slice`` take ``--incremental``.  ``analyze``,
``experiment``, ``check``, ``slice`` and ``fuzz`` share the run-layer
flags: ``--telemetry PATH`` writes JSON-lines records (see
:mod:`repro.telemetry` for the schema) and ``--keep-going`` (default)
/ ``--fail-fast`` pick the failure policy for multi-program runs.
``analyze``, ``check`` and ``slice`` run through the one request path
of :mod:`repro.runner`.

Each handler imports what its subcommand runs; the module itself loads
only what building the argument parser needs.

:func:`main` runs one subcommand in-process and returns its status.
:func:`entry` is the process entry point of ``python -m repro`` and the
``repro`` console script: it ends a one-shot subcommand at its last
flush, without interpreter teardown (see :data:`_FAST_EXIT`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, NoReturn, Optional

from .choices import DIRECTIONS, EXPERIMENT_IDS, SCHEDULES
from .errors import ReproError


def _add_solve_flags(parser: argparse.ArgumentParser, jobs: bool = True,
                     incremental: bool = True) -> None:
    """Flags of every subcommand that solves: the worklist schedule,
    the lowering cache and, where offered, the worker count and
    incremental summary replay."""
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="fan programs across N worker processes "
                                 "(default: 1, in-process)")
    parser.add_argument("--schedule", default="batched",
                        choices=list(SCHEDULES),
                        help="worklist schedule: batched (dense bitset "
                             "engine, default) or fifo (reference "
                             "one-fact queue)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent lowering and summary "
                             "caches under .repro-cache/")
    if incremental:
        parser.add_argument("--incremental", action="store_true",
                            help="persist per-SCC summaries in the "
                                 "lowering cache and re-solve only "
                                 "call-graph SCCs whose bodies or "
                                 "transitive callees changed (identical "
                                 "solutions and digests)")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Shared run-layer flags: telemetry output and failure policy."""
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="write one JSON-lines telemetry record per "
                             "(program, flavor) to PATH ('-' for stdout)")
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument("--fail-fast", dest="fail_fast",
                        action="store_true",
                        help="abort the whole run on the first failing "
                             "program")
    policy.add_argument("--keep-going", dest="fail_fast",
                        action="store_false",
                        help="report per-program errors but keep "
                             "analyzing the rest (default)")
    parser.set_defaults(fail_fast=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Points-to analysis for C (Ruf, PLDI 1995 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    about = ("analyze a C program (several files are linked; with "
             "--jobs > 1 each file is a separate program)")
    analyze = sub.add_parser("analyze", help=about, description=about)
    analyze.add_argument("file", nargs="+", help="C source file(s)")
    analyze.add_argument("--sensitivity", default="both",
                         choices=["insensitive", "sensitive", "both",
                                  "flowinsensitive"])
    analyze.add_argument("--show-pairs", action="store_true",
                         help="print every output's points-to set")
    analyze.add_argument("--modref", action="store_true",
                         help="report per-procedure mod/ref summaries")
    analyze.add_argument("--defuse", action="store_true",
                         help="report per-read reaching definitions "
                              "(def/use chains through memory)")
    analyze.add_argument("--deadstore", action="store_true",
                         help="report dead and unreachable stores")
    analyze.add_argument("--format", default="text", dest="fmt",
                         choices=["text", "json"],
                         help="output format for the summary and "
                              "client reports (default: text)")
    _add_solve_flags(analyze)
    _add_run_flags(analyze)

    dump = sub.add_parser("dump", help="print the lowered VDG")
    dump.add_argument("file", help="C source file")
    dump.add_argument("--function", default=None,
                      help="only this procedure")
    dump.add_argument("--dot", action="store_true",
                      help="emit Graphviz DOT instead of text")
    dump.add_argument("--annotate", action="store_true",
                      help="annotate memory operations with their "
                           "context-insensitive location sets")

    export = sub.add_parser(
        "export", help="serialize an analysis result as JSON")
    export.add_argument("file", help="C source file")
    export.add_argument("--sensitivity", default="insensitive",
                        choices=["insensitive", "sensitive",
                                 "flowinsensitive"])
    export.add_argument("--no-pairs", action="store_true",
                        help="omit the per-output pair sets")

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure from the paper")
    experiment.add_argument("id", choices=list(EXPERIMENT_IDS) + ["all"])
    experiment.add_argument("--markdown", action="store_true",
                            help="emit GitHub-flavored markdown tables")
    _add_solve_flags(experiment, incremental=False)
    _add_run_flags(experiment)

    explain = sub.add_parser(
        "explain",
        help="show derivations for an indirect memory operation's "
             "location set")
    explain.add_argument("file", help="C source file")
    explain.add_argument("--function", default=None,
                         help="limit to this procedure")
    explain.add_argument("--line", type=int, default=None,
                         help="limit to operations at this source line")

    sub.add_parser("suite", help="list benchmark suite programs")

    check = sub.add_parser(
        "check", help="run the bug-finding checkers (hazard-model "
                      "lowering) over the suite or given C files")
    check.add_argument("targets", nargs="*", metavar="TARGET",
                       help="suite program names and/or C source files "
                            "(default: the whole benchmark suite)")
    check.add_argument("--checkers", default=None, metavar="IDS",
                       help="comma-separated checker ids (default: all "
                            "registered checkers)")
    check.add_argument("--flavor", default="insensitive",
                       choices=["insensitive", "sensitive",
                                "flowinsensitive", "all"],
                       help="analysis flavor the checkers consume "
                            "(default: insensitive; 'all' runs every "
                            "flavor for side-by-side counts)")
    _add_solve_flags(check)
    check.add_argument("--witness", action="store_true",
                       help="attach a derivation witness to each "
                            "finding with evidence (text/json formats)")
    check.add_argument("--slice-witness", action="store_true",
                       dest="slice_witness",
                       help="attach each finding's backward "
                            "dependence-graph slice as a witness "
                            "(combinable with --witness)")
    check.add_argument("--format", default="text", dest="fmt",
                       choices=["text", "json", "sarif"],
                       help="output format (default: text; sarif emits "
                            "a SARIF 2.1.0 log)")
    _add_run_flags(check)

    slice_p = sub.add_parser(
        "slice", help="compute program slices over the alias-aware "
                      "dependence graph")
    slice_p.add_argument("targets", nargs="*", metavar="TARGET",
                         help="suite program names and/or C source "
                              "files (default: the whole benchmark "
                              "suite)")
    what = slice_p.add_mutually_exclusive_group(required=True)
    what.add_argument("--criterion", default=None, metavar="FILE:LINE",
                      help="slice from every node lowered from this "
                           "source coordinate")
    what.add_argument("--from-finding", default=None, dest="from_finding",
                      metavar="KEY",
                      help="slice from a checker finding ('repro "
                           "check' key or unique substring; implies "
                           "hazard-model lowering)")
    slice_p.add_argument("--direction", default="backward",
                         choices=list(DIRECTIONS),
                         help="slice direction (default: backward)")
    slice_p.add_argument("--flavor", default="insensitive",
                         choices=["insensitive", "sensitive",
                                  "flowinsensitive"],
                         help="analysis flavor the dependence graph "
                              "is built from (default: insensitive)")
    slice_p.add_argument("--format", default="text", dest="fmt",
                         choices=["text", "json", "dot"],
                         help="output format (default: text; dot "
                              "emits Graphviz)")
    _add_solve_flags(slice_p)
    _add_run_flags(slice_p)

    serve = sub.add_parser(
        "serve", help="run the analysis daemon (HTTP/JSON endpoints "
                      "analyze, check, query, slice, metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="TCP port (default: 8377; 0 picks a free "
                            "port and prints it)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="process-pool width for cold solves "
                            "(default: CPU-derived)")
    serve.add_argument("--max-memory-mb", type=int, default=512,
                       dest="max_memory_mb", metavar="MB",
                       help="combined budget for the in-memory LRU "
                            "cache tiers (default: 512)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       dest="queue_limit", metavar="N",
                       help="max in-flight requests before shedding "
                            "with 429 (default: 32)")
    serve.add_argument("--timeout-seconds", type=float, default=300.0,
                       dest="timeout_seconds", metavar="S",
                       help="per-request wall-clock budget "
                            "(default: 300; 0 disables)")
    serve.add_argument("--request-memory-mb", type=int, default=0,
                       dest="request_memory_mb", metavar="MB",
                       help="per-request worker address-space budget "
                            "(default: 0 = off)")
    _add_solve_flags(serve, jobs=False, incremental=False)
    serve.add_argument("--no-incremental", action="store_true",
                       help="disable SCC-summary replay for warm "
                            "requests (always re-solve)")
    serve.add_argument("--telemetry", metavar="PATH", default=None,
                       help="append kind=\"serve\" JSON-lines metric "
                            "snapshots to PATH")

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing with a concrete-execution "
                     "soundness oracle")
    fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                      help="first generator seed (default: 0); a "
                           "campaign covers seeds S..S+count-1")
    fuzz.add_argument("--count", type=int, default=50, metavar="N",
                      help="number of programs to generate and check "
                           "(default: 50)")
    fuzz.add_argument("--max-nodes", type=int, default=80, metavar="N",
                      help="approximate size budget per generated "
                           "program (default: 80)")
    fuzz.add_argument("--mutate", default=None, metavar="NAME",
                      help="install a deliberately broken transfer "
                           "rule for the whole campaign (self-test; "
                           "see repro.fuzz.mutations)")
    fuzz.add_argument("--deep-every", type=int, default=0, metavar="N",
                      help="every N clean programs, also check "
                           "--jobs/cache digest determinism through "
                           "the parallel driver (default: off)")
    fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                      help="write original.c/shrunk.c/manifest.json "
                           "for each failure under DIR")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip minimizing failing programs")
    fuzz.add_argument("--summaries", action="store_true",
                      help="per seed, also assert summary-based "
                           "(incremental) solutions are digest-"
                           "identical to whole-program solving for "
                           "CI/CS/FI, including after evicting a "
                           "persisted entry")
    _add_run_flags(fuzz)
    return parser


def _write_telemetry(path, records) -> None:
    from .telemetry import write_jsonl

    if path is not None:
        write_jsonl(path, records)


#: Flavor → human label for analyze's text output.
_FLAVOR_LABELS = {"insensitive": "context-insensitive",
                  "sensitive": "context-sensitive",
                  "flowinsensitive": "flow-insensitive"}


#: ``--sensitivity`` → the flavors an analyze request runs.
_SENSITIVITY_FLAVORS = {"insensitive": ("insensitive",),
                        "sensitive": ("sensitive",),
                        "both": ("insensitive", "sensitive"),
                        "flowinsensitive": ("flowinsensitive",)}


def _run(args, kind: str, targets, **fields):
    """One ``kind`` request per target at the shared flags' settings,
    through the runner's one sweep driver."""
    from .runner import Request, run

    return run([Request.build(kind, target, schedule=args.schedule,
                              cache=not args.no_cache,
                              incremental=args.incremental, **fields)
                for target in targets],
               jobs=args.jobs, fail_fast=args.fail_fast)


def _cmd_analyze(args) -> int:
    """One linked program at ``--jobs 1``; at ``--jobs N`` each file is
    its own program, analyzed in a worker.  Failures are isolated per
    request (unless ``--fail-fast``): a file whose worker raises or
    dies is reported on stderr — and as a ``kind="error"`` telemetry
    record — while the rest complete."""
    targets = ([(path,) for path in args.file] if args.jobs > 1
               else [args.file])
    report = _run(args, "analyze", targets,
                  flavors=_SENSITIVITY_FLAVORS[args.sensitivity])
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"error: {outcome.error}", file=sys.stderr)
            continue
        program = next(iter(outcome.results.values())).program
        for warning in program.extras.get("warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
        _report_program(program, outcome.results, args)
    _write_telemetry(args.telemetry, report.records)
    return 0 if report.ok else 1


def _report_program(program, results, args) -> None:
    """One analyzed program's report: text lines or one JSON object."""
    import json as _json

    from .analysis.compare import compare_results
    from .analysis.stats import program_sizes

    compare = (args.sensitivity == "both"
               and "insensitive" in results and "sensitive" in results)
    if args.fmt == "json":
        print(_json.dumps(_program_payload(program, results, args,
                                           compare=compare),
                          indent=2, sort_keys=True))
        return
    sizes = program_sizes(program)
    print(f"{program.name}: {sizes.source_lines} lines, "
          f"{sizes.vdg_nodes} VDG nodes, "
          f"{sizes.alias_related_outputs} alias-related outputs")
    for flavor, result in results.items():
        _print_result(_FLAVOR_LABELS[flavor], result, args)
    if compare:
        report = compare_results(results["insensitive"],
                                 results["sensitive"])
        print(f"spurious pairs: {report.spurious_pairs} "
              f"({report.percent_spurious:.1f}% of CI total); "
              f"indirect ops identical: "
              f"{report.indirect_ops_identical}")


def _program_payload(program, results, args, compare=False) -> dict:
    """JSON-shaped analyze report (summary + requested client
    sections), deterministically ordered throughout."""
    from .analysis.clients.render import clients_payload
    from .analysis.compare import compare_results
    from .analysis.stats import indirect_op_stats, pair_census, program_sizes

    sizes = program_sizes(program)
    doc = {
        "program": program.name,
        "sizes": {"source_lines": sizes.source_lines,
                  "vdg_nodes": sizes.vdg_nodes,
                  "alias_related_outputs": sizes.alias_related_outputs},
        "flavors": {},
    }
    for flavor, result in results.items():
        census = pair_census(result)
        reads = indirect_op_stats(result, "read")
        writes = indirect_op_stats(result, "write")
        entry = {
            "pairs": {"pointer": census.pointer,
                      "function": census.function,
                      "aggregate": census.aggregate,
                      "store": census.store, "total": census.total},
            "indirect_reads": {"total": reads.total,
                               "max": reads.max_locations,
                               "avg": round(reads.avg, 4)},
            "indirect_writes": {"total": writes.total,
                                "max": writes.max_locations,
                                "avg": round(writes.avg, 4)},
            "transfers": result.counters.transfers,
            "meets": result.counters.meets,
            "elapsed_seconds": round(result.elapsed_seconds, 6),
        }
        if args.show_pairs:
            points_to = {}
            for graph_name, graph in result.program.functions.items():
                for output in graph.outputs():
                    pairs = result.pairs(output)
                    if pairs:
                        points_to[f"{graph_name}:{output!r}"] = \
                            sorted(repr(p) for p in pairs)
            entry["points_to"] = dict(sorted(points_to.items()))
        entry.update(clients_payload(
            result, modref_wanted=args.modref,
            defuse_wanted=args.defuse,
            deadstore_wanted=args.deadstore))
        doc["flavors"][flavor] = entry
    if compare:
        report = compare_results(results["insensitive"],
                                 results["sensitive"])
        doc["comparison"] = {
            "spurious_pairs": report.spurious_pairs,
            "percent_spurious": round(report.percent_spurious, 4),
            "indirect_ops_identical": report.indirect_ops_identical,
        }
    return doc


def _print_result(label: str, result, args) -> None:
    from .analysis.stats import indirect_op_stats, pair_census

    census = pair_census(result)
    reads = indirect_op_stats(result, "read")
    writes = indirect_op_stats(result, "write")
    print(f"[{label}] pairs: pointer={census.pointer} "
          f"function={census.function} aggregate={census.aggregate} "
          f"store={census.store} total={census.total}")
    print(f"[{label}] indirect reads: {reads.total} "
          f"(max {reads.max_locations}, avg {reads.avg:.2f}); "
          f"writes: {writes.total} "
          f"(max {writes.max_locations}, avg {writes.avg:.2f}); "
          f"{result.counters.transfers} transfers, "
          f"{result.counters.meets} meets, "
          f"{result.elapsed_seconds:.3f}s")
    if args.show_pairs:
        for graph_name, graph in result.program.functions.items():
            for output in graph.outputs():
                pairs = result.pairs(output)
                if pairs:
                    shown = ", ".join(sorted(repr(p) for p in pairs))
                    print(f"  {graph_name}:{output!r} = {{{shown}}}")
    if args.modref or args.defuse or args.deadstore:
        from .analysis.clients.render import (clients_payload,
                                              render_clients_text)
        sections = clients_payload(result, modref_wanted=args.modref,
                                   defuse_wanted=args.defuse,
                                   deadstore_wanted=args.deadstore)
        for line in render_clients_text(sections):
            print(line)


def _cmd_dump(args) -> int:
    from .analysis.insensitive import analyze_insensitive
    from .frontend.pipeline import lower_file
    from .ir.pretty import format_program

    program = lower_file(args.file)
    result = analyze_insensitive(program) if args.annotate else None
    if args.dot:
        from .ir.dot import program_to_dot, to_dot
        if args.function is not None:
            graph = program.functions.get(args.function)
            if graph is None:
                print(f"error: no function {args.function!r}",
                      file=sys.stderr)
                return 1
            sys.stdout.write(to_dot(graph, result=result))
        else:
            sys.stdout.write(program_to_dot(program, result=result))
        return 0
    sys.stdout.write(format_program(program, only=args.function))
    if result is not None:
        for graph in program.functions.values():
            for node in graph.memory_operations():
                locations = sorted(repr(p)
                                   for p in result.op_locations(node))
                print(f"; {graph.name}:{node!r} -> "
                      f"{{{', '.join(locations)}}}")
    return 0


def _cmd_export(args) -> int:
    from .frontend.pipeline import lower_file
    from .report.export import result_to_json

    program = lower_file(args.file)
    if args.sensitivity == "insensitive":
        from .analysis.insensitive import analyze_insensitive
        result = analyze_insensitive(program)
    elif args.sensitivity == "sensitive":
        from .analysis.sensitive import analyze_sensitive
        result = analyze_sensitive(program)
    else:
        from .analysis.flowinsensitive import analyze_flowinsensitive
        result = analyze_flowinsensitive(program)
    print(result_to_json(result, include_pairs=not args.no_pairs))
    return 0


def _cmd_experiment(args) -> int:
    from .report.experiments import (SuiteRunner, render_experiment,
                                     render_experiment_markdown)

    wanted = list(EXPERIMENT_IDS) if args.id == "all" else [args.id]
    runner = SuiteRunner(jobs=args.jobs, cache=not args.no_cache,
                         fail_fast=args.fail_fast, schedule=args.schedule)
    for experiment_id in wanted:
        if args.markdown:
            print(render_experiment_markdown(experiment_id, runner))
        else:
            print(render_experiment(experiment_id, runner))
        print()
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.telemetry is not None:
        _write_telemetry(args.telemetry, runner.telemetry_records())
    return 0 if not runner.errors else 1


def _cmd_explain(args) -> int:
    from .analysis.explain import Explainer, format_derivation
    from .analysis.insensitive import analyze_insensitive
    from .frontend.pipeline import lower_file

    program = lower_file(args.file)
    result = analyze_insensitive(program)
    explainer = Explainer(result)
    shown = 0
    for name, graph in sorted(program.functions.items()):
        if args.function is not None and name != args.function:
            continue
        for node in graph.memory_operations():
            if not node.is_indirect:
                continue
            if args.line is not None:
                line = node.origin.rsplit(":", 1)[-1] if node.origin else ""
                if line != str(args.line):
                    continue
            source = node.loc.source
            print(f"{name}: {node.kind} at {node.origin}")
            pairs = result.pairs(source)
            if not pairs:
                print("    (dereferences only the null pointer)")
            for pair in sorted(pairs, key=repr):
                derivation = explainer.explain(source, pair)
                print(format_derivation(derivation, indent=4))
            shown += 1
    if not shown:
        print("no matching indirect memory operations", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args) -> int:
    from .suite.registry import PROGRAM_NAMES, program_path

    for name in PROGRAM_NAMES:
        print(f"{name}: {program_path(name)}")
    return 0


def _targets(given: List[str]) -> list:
    """Request targets for ``check``/``slice`` positionals: the suite
    names, then every other argument as one source file each; none at
    all means the whole suite."""
    from .suite.registry import PROGRAM_NAMES

    names = [name for name in given if name in PROGRAM_NAMES]
    paths = [(path,) for path in given if path not in PROGRAM_NAMES]
    return names + paths or list(PROGRAM_NAMES)


def _cmd_check(args) -> int:
    import json as _json

    from .analysis.checkers import findings_digest
    from .runner import FLAVORS

    flavors = FLAVORS if args.flavor == "all" else (args.flavor,)
    checkers = None
    if args.checkers is not None:
        checkers = [c.strip() for c in args.checkers.split(",")
                    if c.strip()]
    if args.slice_witness:
        witness = "slice+deriv" if args.witness else "slice"
    else:
        witness = args.witness
    report = _run(args, "check", _targets(args.targets), flavors=flavors,
                  checkers=checkers, witness=witness)

    ordered = []  # (program, finding) in task/flavor/finding order
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"error: {outcome.error}", file=sys.stderr)
            continue
        for flavor in flavors:
            for finding in outcome.findings.get(flavor, ()):
                ordered.append((outcome.name, finding))

    if args.fmt == "sarif":
        from .report.export import findings_to_sarif
        findings = [f for _, f in ordered]
        print(_json.dumps(findings_to_sarif(findings), indent=2,
                          sort_keys=True))
    elif args.fmt == "json":
        payload = {
            "programs": [{
                "program": o.name,
                "flavors": {
                    flavor: {
                        "findings": [f.as_dict() for f in found],
                        "digest": findings_digest(found),
                    }
                    for flavor, found in o.findings.items()}
            } for o in report.outcomes if o.ok],
            "errors": [str(e) for e in report.errors],
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for program, f in ordered:
            where = f.origin or f"{f.function}:{f.node}"
            line = (f"{program}: {where}: {f.severity}: "
                    f"[{f.checker}/{f.flavor}] {f.message}")
            if f.path:
                line += f" ({f.path})"
            print(line)
            if f.witness:
                for witness_line in f.witness.splitlines():
                    print(f"    {witness_line}")
        by_severity: dict = {}
        for _, f in ordered:
            by_severity[f.severity] = by_severity.get(f.severity, 0) + 1
        summary = ", ".join(f"{n} {sev}(s)"
                            for sev, n in sorted(by_severity.items()))
        print(f"check: {len(ordered)} finding(s) across "
              f"{sum(1 for o in report.outcomes if o.ok)} program(s)"
              + (f": {summary}" if summary else ""))
    _write_telemetry(args.telemetry, report.records)
    return 0 if report.ok else 1


def _cmd_slice(args) -> int:
    import json as _json

    report = _run(args, "slice", _targets(args.targets),
                  flavors=(args.flavor,), criterion=args.criterion,
                  finding=args.from_finding, direction=args.direction)

    payloads = []
    for outcome in report.outcomes:
        if not outcome.ok:
            print(f"error: {outcome.error}", file=sys.stderr)
            continue
        payloads.append(outcome.payload)

    if args.fmt == "json":
        print(_json.dumps({"slices": payloads,
                           "errors": [str(e) for e in report.errors]},
                          indent=2, sort_keys=True))
    elif args.fmt == "dot":
        from .report.export import slice_to_dot
        for payload in payloads:
            sys.stdout.write(slice_to_dot(payload["slice"],
                                          payload["node_info"]))
    else:
        for payload in payloads:
            sl = payload["slice"]
            graph = payload["graph"]
            print(f"{payload['program']} [{payload['flavor']}] "
                  f"{sl['direction']} slice of {sl['criterion']}: "
                  f"{sl['size']} nodes over {len(sl['origins'])} "
                  f"source lines (digest {sl['digest'][:12]}; "
                  f"graph {graph['stats']['nodes']} nodes / "
                  f"{graph['stats']['edges']} edges, "
                  f"digest {graph['digest'][:12]})")
            for origin in sl["origins"]:
                print(f"  {origin}")
    _write_telemetry(args.telemetry, report.records)
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from .fuzz.driver import run_fuzz
    from .fuzz.mutations import MUTATIONS, SOURCE_MUTATIONS

    known = set(MUTATIONS) | set(SOURCE_MUTATIONS)
    if args.mutate is not None and args.mutate not in known:
        print(f"error: unknown mutation {args.mutate!r}; expected one "
              f"of {', '.join(sorted(known))}", file=sys.stderr)
        return 2

    def progress(outcome):
        if outcome.ok:
            return
        kinds = ", ".join(sorted({v.kind for v in outcome.violations}))
        extra = ""
        if outcome.shrunk_lines is not None:
            extra += f", shrunk to {outcome.shrunk_lines} lines"
        if outcome.artifact_dir:
            extra += f", artifacts in {outcome.artifact_dir}"
        print(f"FAIL seed {outcome.seed} ({outcome.name}): "
              f"{len(outcome.violations)} violation(s) [{kinds}]{extra}")
        for violation in outcome.violations[:5]:
            print(f"  {violation.kind}: {violation.detail}")

    report = run_fuzz(
        args.seed, args.count, max_nodes=args.max_nodes,
        mutate=args.mutate, shrink=not args.no_shrink,
        deep_every=args.deep_every, artifacts=args.artifacts,
        fail_fast=args.fail_fast, progress=progress,
        summaries=args.summaries)

    checked = len(report.outcomes)
    failures = report.failures
    ops = sum(o.stats.get("memory_ops", 0) for o in report.outcomes)
    accesses = sum(o.stats.get("concrete_accesses", 0)
                   for o in report.outcomes)
    print(f"fuzz: {checked} program(s), seeds {args.seed}.."
          f"{args.seed + checked - 1}: "
          f"{checked - len(failures)} ok, {len(failures)} failing; "
          f"{ops} memory ops, {accesses} concrete accesses checked")
    for violation in report.deep_violations:
        print(f"  deep {violation.kind}: {violation.detail}")
    if report.deep_violations:
        print(f"fuzz: {len(report.deep_violations)} deep-check "
              f"violation(s)")
    _write_telemetry(args.telemetry, report.records)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    from .serve import ServeConfig
    from .serve.http import run_server

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_memory_mb=args.max_memory_mb,
        queue_limit=args.queue_limit,
        timeout_seconds=args.timeout_seconds,
        request_memory_mb=args.request_memory_mb,
        schedule=args.schedule, cache=not args.no_cache,
        incremental=not args.no_incremental, telemetry=args.telemetry)
    return run_server(config)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand in this process; returns its exit status."""
    return _dispatch(_build_parser().parse_args(argv))


def _dispatch(args: argparse.Namespace) -> int:
    handlers = {
        "analyze": _cmd_analyze,
        "dump": _cmd_dump,
        "experiment": _cmd_experiment,
        "explain": _cmd_explain,
        "export": _cmd_export,
        "suite": _cmd_suite,
        "check": _cmd_check,
        "slice": _cmd_slice,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


#: Subcommands whose process ends at its last flush (:func:`entry`):
#: every one-shot command.  ``serve`` owns a process pool and sockets,
#: and a ``fuzz`` campaign runs for minutes, so both exit normally; the
#: teardown the fast exit skips costs milliseconds.
_FAST_EXIT = frozenset({"analyze", "check", "dump", "experiment",
                        "explain", "export", "slice", "suite"})


def entry() -> NoReturn:
    """Process entry point of ``python -m repro`` and the ``repro``
    console script: run the subcommand ``sys.argv`` names, then end the
    process.

    A :data:`_FAST_EXIT` subcommand ends with ``os._exit`` once stdout
    and then stderr are flushed, skipping interpreter teardown
    (finalizing every module and object), which costs a warm run more
    than its solve.  Nothing else is lost: handlers close the files
    they write (telemetry, cache entries) and shut their worker pools
    down before they return, and stdout before stderr is the order the
    interpreter's own exit flushes them in.  A stdout that
    :func:`main` closed after a broken pipe is not flushed again, and a
    reader that leaves before the last flush ends the run as that
    branch does: status 0, nothing on stderr.  Argument errors,
    uncaught exceptions and the other subcommands exit normally.
    """
    args = _build_parser().parse_args()
    status = _dispatch(args)
    if args.command not in _FAST_EXIT:
        sys.exit(status)
    try:
        if not sys.stdout.closed:
            sys.stdout.flush()
    except BrokenPipeError:
        status = 0
    sys.stderr.flush()
    os._exit(status)
