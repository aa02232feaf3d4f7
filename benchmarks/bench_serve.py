"""Serve-daemon smoke + benchmark: warm-over-cold speedup and parity.

Starts a real ``repro serve`` daemon (in-process asyncio server on an
ephemeral port, throwaway cache directory), then:

1. **cold pass** — one ``analyze`` per suite program against the empty
   cache: full preprocess/parse/lower/solve in a pool worker;
   **fresh phase** — each pool worker is then sent more never-seen
   generated programs than the lowering memo keeps, and the workers'
   summed peak RSS (``VmHWM``) is reported, not gated, so a worker
   that keeps what it solved shows in the report;
2. **warm pass** — the same requests again, repeated: answered from
   the in-memory solution tier without touching the pool;
3. **parity** — every served digest (all three flavors, analyze *and*
   check) must be byte-identical to a fresh CLI-path run computed in
   this process with caching disabled, and so must every program's
   ``/query`` operations and one ``file:line`` ``/slice`` (its slice
   and graph digests, from the first indirect operation's origin);
4. **mixed phase** — ≥50 concurrent warm/cold ``analyze``/``check``/
   ``query``/``slice`` requests (cold via fresh synthetic sources) for
   a sustained-throughput figure.

Gates (nonzero exit on violation, wired into ``make serve-smoke``):

* warm p50 latency ≥ :data:`SPEEDUP_FLOOR` × faster than cold p50;
* all served analyze/check digests, query operations and slice
  digests equal the fresh in-process ones;
* every mixed-phase request answers 200.

Writes ``BENCH_serve.json`` at the repo root::

    python benchmarks/bench_serve.py
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.common import solution_digest  # noqa: E402
from repro.analysis.depgraph import build_depgraph  # noqa: E402
from repro.analysis.flowinsensitive import analyze_flowinsensitive  # noqa: E402
from repro.analysis.insensitive import analyze_insensitive  # noqa: E402
from repro.analysis.sensitive import analyze_sensitive  # noqa: E402
from repro.analysis.slicing import slice_criterion  # noqa: E402
from repro.frontend.cache import _MEMO_KEPT  # noqa: E402
from repro.fuzz.generator import generate_program  # noqa: E402
from repro.runner import Request, run  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.serve.http import run_server  # noqa: E402
from repro.suite.registry import PROGRAM_NAMES, load_program  # noqa: E402
from repro.telemetry import percentile  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_serve.json"

#: The acceptance floor: warm p50 must beat cold p50 by at least this.
SPEEDUP_FLOOR = 5.0

#: Warm repetitions per program (p50 over programs × reps).
WARM_REPS = 3

#: Minimum requests in the mixed sustained-load phase.
MIXED_REQUESTS = 50

CHECK_FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

#: The daemon's pool width.
WORKERS = 4

#: Fresh-phase rounds: each sends one never-seen program per worker, so
#: every worker gets more programs than the lowering memo keeps.
FRESH_ROUNDS = _MEMO_KEPT + 4

#: Size of a fresh-phase program (the fuzz generator's statement
#: budget; 500 is layerbench's ``serve-cold`` fresh class).
FRESH_MAX_NODES = 500


def _start_daemon(cache_dir: str):
    config = ServeConfig(port=0, workers=WORKERS, cache=cache_dir,
                         queue_limit=64,
                         telemetry=str(Path(cache_dir) / "serve.jsonl"),
                         telemetry_every=25)
    addr = {}
    ready = threading.Event()

    def on_ready(hp):
        addr["hp"] = hp
        ready.set()

    thread = threading.Thread(target=run_server, args=(config,),
                              kwargs={"ready": on_ready}, daemon=True)
    thread.start()
    if not ready.wait(60):
        raise RuntimeError("daemon failed to start within 60s")
    return addr["hp"]


def _request(addr, method, path, body=None):
    host, port = addr
    conn = http.client.HTTPConnection(host, port, timeout=600)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        started = time.perf_counter()
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        data = json.loads(resp.read())
        return resp.status, data, time.perf_counter() - started
    finally:
        conn.close()


def _workers_vmhwm_mb():
    """Summed ``VmHWM`` of the daemon's pool workers in MB, or ``None``
    without ``/proc``.  The daemon runs in this process, so its
    workers are this process's multiprocessing children."""
    total_kb = None
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb = (total_kb or 0) + int(line.split()[1])
    return None if total_kb is None else round(total_kb / 1024.0, 1)


def _served_digests(payload):
    return {flavor: entry["digest"]
            for flavor, entry in payload["flavors"].items()}


def _cli_analyze_digests(name):
    """Fresh CLI-path digests: same code the CLI drives, cache off."""
    program = load_program(name, cache=False)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def _reference_query_and_slice(name):
    """``/query``'s operations for the whole program, and the
    ``file:line`` criterion, slice digest and graph digest of a
    backward slice from the first indirect operation — CI, cache off,
    straight from the solved result."""
    result = analyze_insensitive(load_program(name, cache=False))
    operations = []
    for function, graph in sorted(result.program.functions.items()):
        for node in graph.memory_operations():
            if node.is_indirect:
                operations.append({
                    "function": function, "kind": node.kind,
                    "origin": node.origin or "",
                    "locations": sorted(
                        repr(p) for p in result.op_locations(node))})
    criterion = operations[0]["origin"] if operations else None
    if not criterion:
        return operations, None, None
    graph = build_depgraph(result)
    sliced = slice_criterion(graph, criterion, "backward")
    return operations, criterion, {"slice": sliced.digest(),
                                   "graph": graph.digest()}


def _synthetic(tag: int) -> str:
    return f"""
int ga{tag};
int gb{tag};
int *pick(int c) {{ return c ? &ga{tag} : &gb{tag}; }}
int main(void) {{ int *p = pick({tag % 2}); *p = {tag}; return 0; }}
"""


def main() -> int:
    failures: list = []
    report: dict = {"schema": 1, "kind": "serve-bench",
                    "suite_size": len(PROGRAM_NAMES),
                    "speedup_floor": SPEEDUP_FLOOR}

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as cache:
        addr = _start_daemon(cache)

        # -- cold pass --------------------------------------------------
        cold_latencies = {}
        served = {}
        for name in PROGRAM_NAMES:
            status, payload, seconds = _request(
                addr, "POST", "/analyze", {"program": name})
            if status != 200:
                failures.append(f"cold analyze {name}: HTTP {status} "
                                f"({payload.get('error')})")
                continue
            cold_latencies[name] = seconds
            served[name] = _served_digests(payload)
        report["cold_p50_seconds"] = percentile(
            list(cold_latencies.values()), 0.50)

        # -- fresh phase: more never-seen programs per worker than the
        # lowering memo keeps, one concurrent request per worker a round
        def fresh(seed):
            source = generate_program(seed, FRESH_MAX_NODES).source
            return _request(addr, "POST", "/analyze", {"source": source})

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for first in range(1, FRESH_ROUNDS * WORKERS + 1, WORKERS):
                seeds = range(first, first + WORKERS)
                for seed, (status, payload, _) in zip(
                        seeds, pool.map(fresh, seeds)):
                    if status != 200:
                        failures.append(
                            f"fresh analyze seed {seed}: HTTP {status} "
                            f"({payload.get('error')})")
        report["fresh_phase_programs"] = FRESH_ROUNDS * WORKERS
        workers_mb = _workers_vmhwm_mb()
        if workers_mb is not None:
            report["cold_workers_vmhwm_mb"] = workers_mb

        # -- warm pass --------------------------------------------------
        warm_latencies = []
        warm_tiers = {}
        for _ in range(WARM_REPS):
            for name in PROGRAM_NAMES:
                status, payload, seconds = _request(
                    addr, "POST", "/analyze", {"program": name})
                if status != 200:
                    failures.append(f"warm analyze {name}: HTTP {status}")
                    continue
                warm_latencies.append(seconds)
                warm_tiers[payload["tier"]] = \
                    warm_tiers.get(payload["tier"], 0) + 1
                if _served_digests(payload) != served.get(name):
                    failures.append(
                        f"warm analyze {name}: digests drifted from "
                        f"this daemon's cold answer")
        report["warm_p50_seconds"] = percentile(warm_latencies, 0.50)
        report["warm_tiers"] = warm_tiers

        cold_p50 = report["cold_p50_seconds"] or 0.0
        warm_p50 = report["warm_p50_seconds"] or float("inf")
        speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
        report["warm_over_cold_speedup"] = (
            None if speedup == float("inf") else round(speedup, 2))
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"warm p50 {warm_p50:.4f}s is only {speedup:.1f}x faster "
                f"than cold p50 {cold_p50:.4f}s (floor {SPEEDUP_FLOOR}x)")

        # -- analyze parity against fresh CLI runs ----------------------
        for name in PROGRAM_NAMES:
            if name not in served:
                continue
            fresh = _cli_analyze_digests(name)
            if served[name] != fresh:
                failures.append(f"analyze parity {name}: served digests "
                                f"!= fresh CLI digests")
        report["analyze_parity_programs"] = len(served)

        # -- check parity -----------------------------------------------
        check_served = {}
        for name in PROGRAM_NAMES:
            status, payload, _ = _request(
                addr, "POST", "/check",
                {"program": name, "flavors": list(CHECK_FLAVORS)})
            if status != 200:
                failures.append(f"check {name}: HTTP {status}")
                continue
            check_served[name] = _served_digests(payload)
        fresh_report = run([Request.build(
            "check", name, flavors=CHECK_FLAVORS, cache=False,
            payload_only=True) for name in PROGRAM_NAMES])
        for outcome in fresh_report.outcomes:
            if outcome.error is not None:
                failures.append(f"fresh check {outcome.name}: "
                                f"{outcome.error.message}")
                continue
            if check_served.get(outcome.name) != outcome.digests:
                failures.append(f"check parity {outcome.name}: served "
                                f"digests != fresh CLI digests")
        report["check_parity_programs"] = len(check_served)

        # -- query and slice parity -------------------------------------
        criteria = {}
        for name in PROGRAM_NAMES:
            operations, criterion, sliced = _reference_query_and_slice(
                name)
            status, payload, _ = _request(addr, "POST", "/query",
                                          {"program": name})
            if status != 200:
                failures.append(f"query {name}: HTTP {status}")
            elif payload["operations"] != operations:
                failures.append(f"query parity {name}: served operations "
                                f"!= fresh in-process operations")
            if criterion is None:
                failures.append(f"slice {name}: no indirect operation "
                                f"with an origin to slice from")
                continue
            criteria[name] = criterion
            status, payload, _ = _request(
                addr, "POST", "/slice",
                {"program": name, "criterion": criterion})
            if status != 200:
                failures.append(f"slice {name}: HTTP {status} "
                                f"({payload.get('error')})")
            elif {"slice": payload["slice"]["digest"],
                  "graph": payload["graph"]["digest"]} != sliced:
                failures.append(f"slice parity {name}: served digests "
                                f"!= fresh in-process digests")
        report["query_slice_parity_programs"] = len(criteria)

        # -- mixed sustained-load phase ---------------------------------
        bodies = []
        for i in range(MIXED_REQUESTS):
            name = PROGRAM_NAMES[i % len(PROGRAM_NAMES)]
            if i % 5 == 4:       # every 5th request is a cold source
                bodies.append(("/analyze", {"source": _synthetic(i)}))
            elif i % 3 == 2:
                bodies.append(("/check", {"program": name,
                                          "flavors": ["insensitive"]}))
            elif i % 7 == 6:
                bodies.append(("/query", {"program": name,
                                          "flavor": "insensitive"}))
            elif i % 4 == 3 and name in criteria:
                bodies.append(("/slice", {"program": name,
                                          "criterion": criteria[name]}))
            else:
                bodies.append(("/analyze", {"program": name}))

        def fire(spec):
            path, body = spec
            return _request(addr, "POST", path, body)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            mixed = list(pool.map(fire, bodies))
        mixed_wall = time.perf_counter() - started
        bad = [status for status, _, _ in mixed if status != 200]
        if bad:
            failures.append(f"mixed phase: {len(bad)} non-200 responses")
        report["mixed_requests"] = len(bodies)
        report["mixed_wall_seconds"] = round(mixed_wall, 4)
        report["mixed_throughput_rps"] = round(len(bodies) / mixed_wall, 2)
        report["mixed_p95_seconds"] = percentile(
            [s for _, _, s in mixed], 0.95)

        status, metrics, _ = _request(addr, "GET", "/metrics")
        if status == 200:
            report["daemon_metrics"] = metrics

    report["ok"] = not failures
    report["failures"] = failures
    for key in ("cold_p50_seconds", "warm_p50_seconds",
                "mixed_p95_seconds"):
        if report.get(key) is not None:
            report[key] = round(report[key], 6)
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"serve bench: cold p50 {report['cold_p50_seconds']}s "
          f"(workers' VmHWM {report.get('cold_workers_vmhwm_mb')} MB), "
          f"warm p50 {report['warm_p50_seconds']}s "
          f"({report['warm_over_cold_speedup']}x, floor {SPEEDUP_FLOOR}x); "
          f"mixed {report['mixed_requests']} reqs at "
          f"{report['mixed_throughput_rps']} rps")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"serve smoke ok -> {OUTPUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
