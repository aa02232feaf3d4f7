"""Host-normalised end-to-end benchmark of the ``repro`` CLI and daemon.

    python3 layerbench/run.py --workload cli-warm --seed 1 --seconds 15 --trace 0
    python3 layerbench/run.py --workload serve-cold --seed 1 --trace 1
    python3 layerbench/run.py --workload serve-warm --repeat 10
    python3 layerbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
program under the layer wrappers and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Each workload's op classes, with the name the report gives each
#: class median.
CLASSES = {
    "cli-warm": {"cli": "latency_p50_ms"},
    "serve-warm": {"hit": "hit_p50_ms", "query": "query_p50_ms",
                   "slice": "slice_p50_ms"},
    "serve-cold": {"edit": "edit_p50_ms", "fresh": "fresh_p50_ms"},
}

#: (name, unit) of the end-to-end metrics, the same on every workload.
END_TO_END = (("latency_p50_ms", "ms"), ("throughput_ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def end_to_end(workload, setup_log, log, peak_rss_mb):
    """The end-to-end metrics and the report lines behind them."""
    from measure import geometric_mean, mix_throughput

    summaries = [log.summarise(cls) for cls in CLASSES[workload.name]]
    counts = {s.cls: s.n for s in summaries}
    latency = geometric_mean([s.p50_ms for s in summaries])
    raw_latency = geometric_mean([s.raw_p50_ms for s in summaries])
    lines = [f"{'metric':<22} {'normalised':>11} {'raw':>11} {'n':>6}  "
             f"tail (normalised / raw)"]
    for s in summaries:
        tail = (f"p{s.tail_p * 100:g} {_fmt(s.tail_ms)} / "
                f"{_fmt(s.raw_tail_ms)} ms" if s.tail_p else "-")
        lines.append(f"{CLASSES[workload.name][s.cls]:<22} "
                     f"{s.p50_ms:>11.4f} {s.raw_p50_ms:>11.4f} {s.n:>6}  "
                     f"{tail}")
    metrics = {
        "latency_p50_ms": (latency, raw_latency, log.attempted - log.failed),
        "throughput_ops_per_s": (mix_throughput(summaries, counts),
                                 mix_throughput(summaries, counts, raw=True),
                                 sum(counts.values())),
        "peak_rss_mb": (peak_rss_mb, peak_rss_mb, 1),
        "setup_s": (setup_log.normalised_total_s(), setup_log.raw_total_s(),
                    setup_log.attempted),
    }
    for name, unit in END_TO_END:
        value, raw, n = metrics[name]
        lines.append(f"{name:<22} {value:>11.4f} {raw:>11.4f} {n:>6}  {unit}")
    lines.append(f"{'error_rate':<22} {log.error_rate:>11.4f} "
                 f"{log.error_rate:>11.4f} {log.attempted:>6}  "
                 f"({log.failed} failed)")
    lines.append(f"probe_ms {log.probe_ms():.4f} (median raw probe; "
                 f"normalised times assume {log.nominal_ms} ms)")
    detail = {f"{name} (raw)": metrics[name][1] for name, _ in END_TO_END}
    for s in summaries:
        name = CLASSES[workload.name][s.cls]
        detail[name] = s.p50_ms
        detail[f"{name} (raw)"] = s.raw_p50_ms
    lines.append("detail " + json.dumps(detail))
    return ({name: {"value": metrics[name][0], "unit": unit}
             for name, unit in END_TO_END}, lines)


def per_layer(workload, ops, log, ctx):
    import layers

    trace = layers.TraceAnalysis(ops, ctx.trace_dir,
                                 cli=workload.name == "cli-warm")
    values, notes = layers.per_layer_metrics(workload, ops, trace,
                                             log.probe_ms(), ctx.run_dir)
    lines = layers.layer_table(trace, len(ops)) + notes
    lines += [f"{name} = {values[name]:.6g} {unit}"
              for name, unit, _ in layers.PER_LAYER]
    reconciled = (values["trace.unattributed_pct"]
                  <= layers.UNATTRIBUTED_TOLERANCE_PCT)
    if not reconciled:
        lines.append(f"FAIL: {values['trace.unattributed_pct']:.2f}% of op "
                     f"wall time unattributed (tolerance "
                     f"{layers.UNATTRIBUTED_TOLERANCE_PCT}%)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.PER_LAYER}
    return metrics, lines, reconciled


def run_once(args) -> int:
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    from workloads import WORKLOADS, Context, RunError
    from measure import OpLog

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    workload = WORKLOADS[args.workload](ctx)
    setup_log = OpLog(nominal_ms=workload.nominal_ms)
    log = OpLog(nominal_ms=workload.nominal_ms)
    try:
        try:
            workload.setup(setup_log)
            ops = workload.timed(log)
            peak_rss = workload.peak_rss_mb()
        finally:
            workload.teardown()
        for index, error in workload.verify().items():
            log.samples[index].error = error
        if args.trace:
            metrics, lines, reconciled = per_layer(workload, ops, log, ctx)
        else:
            metrics, lines = end_to_end(workload, setup_log, log, peak_rss)
            reconciled = True
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.cleanup()
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {log.attempted} ops, {log.failed} failed")
    for error in log.errors()[:10]:
        print(f"  failed: {error}")
    for line in lines:
        print(f"  {line}")
    correct = log.failed == 0 and reconciled
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0 if reconciled else 1


def repeat(args) -> int:
    """Run one workload ``--repeat`` times (seeds seed, seed+1, ...) and
    print each metric's median, quartiles and quartile spread."""
    from measure import quartile_spread

    values: dict = {}
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        line = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for text in lines:
            if text.strip().startswith("detail {"):
                detail = json.loads(text.strip()[len("detail "):])
                for name, value in detail.items():
                    values.setdefault(name, []).append(value)
    print(f"{'metric':<34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7}")
    for name, series in values.items():
        if len(series) < 2 or statistics.median(series) == 0:
            continue
        s = quartile_spread(series)
        print(f"{name:<34} {s['median']:>11.4f} {s['q1']:>11.4f} "
              f"{s['q3']:>11.4f} {100 * s['spread']:>6.1f}%")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("cli-warm", "serve-warm", "serve-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run the workload K times and report spread")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own unit tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
