"""The three closed-loop workloads: one client, one op in flight.

* ``cli-warm`` — one fresh ``python -m repro`` process per op over a
  seeded shuffle of ``analyze``, ``check`` and ``slice`` on the 13
  suite programs, with the lowering cache primed in set-up.
* ``serve-warm`` — one keep-alive connection to a ``repro serve``
  daemon sending ``/analyze``, ``/check``, ``/query`` and ``/slice``
  over the 13 programs, every cache tier primed in set-up.
* ``serve-cold`` — the same daemon and loop, every request carrying
  never-seen source: an edited suite file (``/check``) alternating
  with a renamed fuzz-generator program (``/analyze``).

Each workload sets up (timed step by step, every step after a probe),
runs whole seeded rounds of ops until ``seconds`` have passed, checks
every output against a reference the benchmark computes itself, and
tears down every process it started.  Program processes run in a
per-run directory inside the checkout, with ``REPRO_CACHE_DIR`` set,
because the CLI writes ``./.repro-cache/`` into its working directory.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
from measure import PROBE_NOMINAL_MS, OpLog, probe
from tracing import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
SUITE_DIR = SRC / "repro" / "suite" / "programs"
RUNS_DIR = REPO / ".layerbench-runs"

#: A single op taking longer than this counts as failed (timeout).
OP_TIMEOUT_S = 60.0

#: Flavors the daemon solves by default, in its order.
FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
_ANALYZE_VOLATILE = re.compile(rb"\d+ meets, \d+\.\d+s$", re.M)


class RunError(RuntimeError):
    """The program failed where the run cannot go on: in set-up, while
    computing references, or without writing its trace."""


def suite_programs() -> List[str]:
    return sorted(p.stem for p in SUITE_DIR.glob("*.c"))


@dataclass
class Op:
    """One timed op's window on the shared monotonic clock."""

    index: int
    cls: str
    start_ns: int
    end_ns: int
    pid: Optional[int] = None
    stdout_bytes: int = 0
    stderr: bytes = b""
    tier: Optional[str] = None


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    run_dir: Path = field(init=False)

    def __post_init__(self) -> None:
        self.run_dir = RUNS_DIR / f"{self.workload}-{self.seed}-{os.getpid()}"
        for sub in ("work", "cache", "tmp", "trace"):
            (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        self.work = self.run_dir / "work"
        self.trace_dir = self.run_dir / "trace"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC),
                   REPRO_CACHE_DIR=str(self.run_dir / "cache"),
                   TMPDIR=str(self.run_dir / "tmp"),
                   # One hash seed, so set/dict iteration order (and
                   # with it the solvers' visit order) repeats per run.
                   PYTHONHASHSEED="0")
        if self.trace:
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        self.env = env

    def program_argv(self, args: List[str]) -> List[str]:
        if self.trace:
            return [sys.executable, "-X", "importtime",
                    str(HERE / "launcher.py"), *args]
        return [sys.executable, "-m", "repro", *args]

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _timed(log: OpLog, cls: str, fn, probe_fn=probe,
           check=None) -> Tuple[Op, object]:
    """Probe, then run ``fn() -> (result, error)`` as one timed op;
    ``check(result) -> error`` runs after the clock stops."""
    probe_s = probe_fn()
    start = time.monotonic_ns()
    result, error = fn()
    end = time.monotonic_ns()
    if error is None and check is not None:
        error = check(result)
    log.record(cls, (end - start) / 1e9, probe_s, error)
    return Op(len(log.samples) - 1, cls, start, end), result


def run_rounds(seconds: float, round_iter, do_op, after_first=None) -> None:
    """Run whole rounds until ``seconds`` have passed; ``after_first``
    runs once, when the first round is done."""
    started = time.monotonic()
    for ops in round_iter:
        for op in ops:
            do_op(op)
        if after_first is not None:
            after_first()
            after_first = None
        if time.monotonic() - started >= seconds:
            return


def answer_hash(answer: object) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- references: the library in-process, caches off ------------------------


def _lower(path: str):
    from repro.frontend.lower import lower_file

    return lower_file(path, cache=False)


def reference_analyze(path: str) -> Dict[str, str]:
    from repro.analysis.flowinsensitive import analyze_flowinsensitive
    from repro.analysis.insensitive import analyze_insensitive
    from repro.analysis.sensitive import analyze_sensitive
    from repro.fuzz.oracle import solution_digest

    program = _lower(path)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    fi = analyze_flowinsensitive(program)
    return {"insensitive": solution_digest(ci),
            "sensitive": solution_digest(cs),
            "flowinsensitive": solution_digest(fi)}


def reference_check(path: str) -> Dict[str, str]:
    from repro.runner import run_check_report

    report = run_check_report(paths=[path], flavors=FLAVORS, cache=False,
                              digest_only=True, jobs=1)
    outcome = report.outcomes[0]
    if outcome.error is not None:
        raise RunError(f"reference check of {path}: {outcome.error}")
    return dict(outcome.digests)


def indirect_ops(result) -> List[dict]:
    """``/query``'s answer for a whole program, from a solved result."""
    ops = []
    for name, graph in sorted(result.program.functions.items()):
        for node in graph.memory_operations():
            if node.is_indirect:
                ops.append({"function": name, "kind": node.kind,
                            "origin": node.origin or "",
                            "locations": sorted(
                                repr(p) for p in result.op_locations(node))})
    return ops


def reference_query_and_slice(path: str, criterion: str) -> Tuple[str, dict]:
    from repro.analysis.depgraph import build_depgraph
    from repro.analysis.insensitive import analyze_insensitive
    from repro.analysis.slicing import slice_criterion

    ci = analyze_insensitive(_lower(path))
    graph = build_depgraph(ci)
    sliced = slice_criterion(graph, criterion, "backward")
    return (answer_hash(indirect_ops(ci)),
            {"slice": sliced.digest(), "graph": graph.digest()})


# -- cli-warm --------------------------------------------------------------


def _mask_volatile(stdout: bytes) -> bytes:
    """``analyze`` prints each solve's wall time and ``meets`` count,
    and ``meets`` is order-dependent: it differs between a freshly
    lowered and a cache-loaded program (only ``meets`` may, per the
    solvers' contract).  Everything else in the stdout of
    ``analyze``/``check``/``slice`` must match byte for byte."""
    return _ANALYZE_VOLATILE.sub(b"<meets> meets, <elapsed>s", stdout)


#: What the ``cli-warm`` probe process runs: the daemon workloads'
#: CPU loop, twenty times over.
_CHILD_PROBE = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                f"import measure; "
                f"measure._probe_kernel(measure.PROBE_ITERATIONS * 20)")


class CliWarm:
    name = "cli-warm"
    commands = ("analyze", "check", "slice")
    #: Nominal time of :meth:`probe`, the scale of normalised times.
    nominal_ms = 90.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.programs = suite_programs()
        self.argv: Dict[Tuple[str, str], List[str]] = {}
        self.expected: Dict[Tuple[str, str], bytes] = {}
        self.peak_rss_kb = 0

    def _run(self, args: List[str]):
        ctx = self.ctx
        stderr_path = ctx.run_dir / "stderr.txt"
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(ctx.program_argv(args), cwd=ctx.work,
                                    env=ctx.env, stdout=subprocess.PIPE,
                                    stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc, out, usage

    def probe(self) -> float:
        """Seconds a fresh interpreter takes to start and run a fixed
        pure-Python loop (about 50 ms + 35 ms on the reference host).

        A CLI op is a process start followed by Python work (imports,
        then the command).  On the reference host the CPU loop alone,
        timed in the driver, did not track CLI ops (in one burst it
        slowed by half while they sped up), and a bare interpreter start
        under-corrected: ten-seed spread 18% against 20% raw.  Start
        plus loop in a child process: 5% against 8% raw over five
        seeds."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _CHILD_PROBE], cwd=self.ctx.work,
                       env=self.ctx.env, timeout=OP_TIMEOUT_S)
        return time.perf_counter() - start

    def _op(self, log: OpLog, cls: str,
            key: Tuple[str, str]) -> Tuple[Op, bytes]:
        command = " ".join(self.argv[key])

        def run():
            proc, out, usage = self._run(self.argv[key])
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            error = (f"{command}: exit {proc.returncode}"
                     if proc.returncode else None)
            return (proc.pid, out), error

        def check(result):
            if key in self.expected and \
                    _mask_volatile(result[1]) != self.expected[key]:
                return f"{command}: stdout differs"
            return None

        op, (op.pid, out) = _timed(log, cls, run, self.probe, check)
        op.stdout_bytes = len(out)
        return op, out

    def setup(self, log: OpLog) -> None:
        for name in self.programs:
            shutil.copy(SUITE_DIR / f"{name}.c", self.ctx.work / f"{name}.c")
        for name, criterion in self._criteria().items():
            self.argv[("analyze", name)] = ["analyze", f"{name}.c"]
            self.argv[("check", name)] = ["check", f"{name}.c"]
            self.argv[("slice", name)] = ["slice", f"{name}.c",
                                          "--criterion", criterion]
        # Every command once against the empty cache: each lowers on
        # the cache-miss path (check, analyze and slice key their
        # lowerings differently) and stores what the timed ops load.
        for name in self.programs:
            for command in self.commands:
                key = (command, name)
                _, out = self._op(log, "setup", key)
                if not log.samples[-1].ok:
                    raise RunError(log.samples[-1].error)
                self.expected[key] = _mask_volatile(out)

    def _criteria(self) -> Dict[str, str]:
        """A seeded slice criterion per program, from the origins of
        its indirect memory operations (lowered in-process)."""
        criteria = {}
        for name in self.programs:
            program = _lower(str(self.ctx.work / f"{name}.c"))
            lines = [node.origin.rsplit(":", 1)[1]
                     for graph in program.functions.values()
                     for node in graph.memory_operations()
                     if node.is_indirect and node.origin]
            criteria[name] = inputs.pick_criterion(
                self.ctx.seed, name, [f"{name}.c:{line}" for line in lines])
        return criteria

    def timed(self, log: OpLog) -> List[Op]:
        ops: List[Op] = []
        keys = [(c, p) for p in self.programs for c in self.commands]

        def do(key):
            op, _ = self._op(log, "cli", key)
            if self.ctx.trace:
                op.stderr = (self.ctx.run_dir / "stderr.txt").read_bytes()
            ops.append(op)

        run_rounds(self.ctx.seconds, inputs.rounds(self.ctx.seed, keys), do)
        return ops

    def verify(self) -> Dict[int, str]:
        return {}   # every op was compared to its cache-miss stdout

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0

    def teardown(self) -> None:
        pass


# -- the daemon ------------------------------------------------------------


def _proc_status(pid: int) -> Dict[str, str]:
    status = {}
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                key, _, value = line.partition(":")
                status[key] = value.strip()
    except OSError:
        pass
    return status


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            if _proc_status(int(entry)).get("PPid") == str(pid):
                found.append(int(entry))
    return found


class Daemon:
    """A ``repro serve --port 0 --workers 1`` process and one
    keep-alive connection to it.  One op is in flight at a time, so
    one pool worker serves every cold request."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.proc: Optional[subprocess.Popen] = None
        self.conn: Optional[http.client.HTTPConnection] = None
        self.spawned_ns = 0

    def start(self) -> None:
        ctx = self.ctx
        out_path = ctx.run_dir / "daemon.out"
        self.spawned_ns = time.monotonic_ns()
        with open(out_path, "wb") as out, \
                open(ctx.run_dir / "daemon.err", "wb") as err:
            self.proc = subprocess.Popen(
                ctx.program_argv(["serve", "--port", "0", "--workers", "1"]),
                cwd=ctx.work, env=ctx.env, stdout=out, stderr=err,
                start_new_session=True)
        deadline = time.monotonic() + OP_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(out_path.read_text(errors="replace"))
            if match:
                self.conn = http.client.HTTPConnection(
                    match.group(1), int(match.group(2)),
                    timeout=OP_TIMEOUT_S)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RunError("repro serve did not start listening: "
                         + (ctx.run_dir / "daemon.err").read_text()[-2000:])

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[int, bytes]:
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()   # reconnects on the next request
            return 0, repr(exc).encode()

    def post(self, log: OpLog, cls: str, endpoint: str,
             body: dict) -> Tuple[Op, Optional[dict]]:
        """One timed ``POST``; the response is decoded after the clock
        stops (``None`` when the op failed)."""
        data = json.dumps(body).encode()

        def run():
            status, raw = self.request("POST", f"/{endpoint}", data)
            if status != 200:
                return None, f"/{endpoint}: HTTP {status} {raw[:200]!r}"
            return raw, None

        op, raw = _timed(log, cls, run)
        return op, (json.loads(raw) if raw is not None else None)

    def metrics(self) -> dict:
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise RunError(f"GET /metrics: HTTP {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        """VmHWM so far of the daemon plus its forked pool workers."""
        pid = self.proc.pid
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        # Forked workers share the daemon's command line; the
        # multiprocessing resource tracker does not.
        workers = [child for child in _children(pid)
                   if Path(f"/proc/{child}/cmdline").read_bytes() == cmdline]
        return sum(int(_proc_status(member).get("VmHWM", "0 kB").split()[0])
                   for member in [pid] + workers) / 1024.0

    def stop(self) -> None:
        """SIGINT (the daemon writes its spans and shuts its pool
        down), then make sure nothing of its process group is left."""
        if self.proc is None:
            return
        if self.conn is not None:
            self.conn.close()
        group = [self.proc.pid] + _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not _wait_ended(group, 10):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            _wait_ended(group, 10)


def _wait_ended(pids: List[int], seconds: float) -> bool:
    """Wait until every pid has exited (gone, or a zombie whose parent
    has not reaped it yet)."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all(_proc_status(p).get("State", "Z")[:1] in ("Z", "X")
               for p in pids):
            return True
        time.sleep(0.02)
    return False


class _ServeWorkload:
    """Shared daemon plumbing for the two serve workloads."""

    nominal_ms = PROBE_NOMINAL_MS

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.programs = suite_programs()
        self.sources = {name: (SUITE_DIR / f"{name}.c").read_text()
                        for name in self.programs}
        self.daemon = Daemon(ctx)
        self.metrics_before: dict = {}
        self.metrics_after: dict = {}

    def _start(self, log: OpLog) -> None:
        def spawn():
            self.daemon.start()
            return None, None
        _timed(log, "setup", spawn)

    def _prime(self, log: OpLog, endpoint: str, body: dict) -> dict:
        _, payload = self.daemon.post(log, "setup", endpoint, body)
        if not log.samples[-1].ok:
            raise RunError(log.samples[-1].error)
        return payload

    def _note_rss(self) -> None:
        # The daemon keeps what it learns, so its peak grows with the
        # number of rounds a run fits in; one round is the same work
        # on every run.
        self.rss_mb = self.daemon.peak_rss_mb()

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def teardown(self) -> None:
        self.daemon.stop()


class ServeWarm(_ServeWorkload):
    name = "serve-warm"
    endpoints = ("analyze", "check", "query", "slice")
    classes = {"analyze": "hit", "check": "hit", "query": "query",
               "slice": "slice"}

    def setup(self, log: OpLog) -> None:
        self._start(log)
        self.paths: Dict[str, str] = {}
        self.criteria: Dict[str, str] = {}
        for name in self.programs:
            body = {"source": self.sources[name]}
            self.paths[name] = self._prime(log, "analyze", body)["program"]
            self._prime(log, "check", body)
            origins = [op["origin"] for op in
                       self._prime(log, "query", body)["operations"]]
            self.criteria[name] = inputs.pick_criterion(
                self.ctx.seed, name, origins)
            self._prime(log, "slice", dict(body,
                                           criterion=self.criteria[name]))

    def _body(self, endpoint: str, name: str) -> dict:
        body = {"source": self.sources[name]}
        if endpoint == "slice":
            body["criterion"] = self.criteria[name]
        return body

    def timed(self, log: OpLog) -> List[Op]:
        ops: List[Op] = []
        self.answers: List[Tuple[int, str, str, object]] = []
        keys = [(e, p) for p in self.programs for e in self.endpoints]
        if self.ctx.trace:
            self.metrics_before = self.daemon.metrics()

        def do(key):
            endpoint, name = key
            op, payload = self.daemon.post(log, self.classes[endpoint],
                                           endpoint,
                                           self._body(endpoint, name))
            op.tier = payload and payload.get("tier")
            ops.append(op)
            if payload is not None:
                self.answers.append((op.index, endpoint, name,
                                     served_answer(endpoint, payload)))

        run_rounds(self.ctx.seconds, inputs.rounds(self.ctx.seed, keys), do,
                   self._note_rss)
        if self.ctx.trace:
            self.metrics_after = self.daemon.metrics()
        return ops

    def verify(self) -> Dict[int, str]:
        expected = {}
        for name in self.programs:
            path = self.paths[name]
            query, sliced = reference_query_and_slice(path,
                                                      self.criteria[name])
            expected[("analyze", name)] = reference_analyze(path)
            expected[("check", name)] = reference_check(path)
            expected[("query", name)] = query
            expected[("slice", name)] = sliced
        return {index: f"/{endpoint} {name}: answer differs from the "
                       f"in-process reference"
                for index, endpoint, name, answer in self.answers
                if answer != expected[(endpoint, name)]}


def served_answer(endpoint: str, payload: dict) -> object:
    """The part of a response the references pin down."""
    if endpoint in ("analyze", "check"):
        return {flavor: entry["digest"]
                for flavor, entry in payload["flavors"].items()}
    if endpoint == "query":
        return answer_hash(payload["operations"])
    return {"slice": payload["slice"]["digest"],
            "graph": payload["graph"]["digest"]}


class ServeCold(_ServeWorkload):
    name = "serve-cold"

    def setup(self, log: OpLog) -> None:
        self.fresh = inputs.fresh_sources()
        self._start(log)
        for name in self.programs:
            self._prime(log, "check", {"source": self.sources[name]})

    def timed(self, log: OpLog) -> List[Op]:
        ops: List[Op] = []
        self.answers: List[Tuple[int, str, str, object]] = []
        if self.ctx.trace:
            self.metrics_before = self.daemon.metrics()

        def do(spec):
            cls, index, serial = spec
            if cls == "edit":
                endpoint = "check"
                name = self.programs[index]
                source = inputs.edit_source(self.ctx.seed, name,
                                            self.sources[name], serial)
            else:
                endpoint = "analyze"
                source = inputs.fresh_source(self.ctx.seed,
                                             self.fresh[index], serial)
            op, payload = self.daemon.post(log, cls, endpoint,
                                           {"source": source})
            op.tier = payload and payload.get("tier")
            ops.append(op)
            if payload is not None:
                self.answers.append((op.index, endpoint, payload["program"],
                                     served_answer(endpoint, payload)))

        run_rounds(self.ctx.seconds,
                   inputs.cold_ops(self.ctx.seed, self.programs), do,
                   self._note_rss)
        if self.ctx.trace:
            self.metrics_after = self.daemon.metrics()
        return ops

    def verify(self) -> Dict[int, str]:
        failures = {}
        for index, endpoint, path, answer in self.answers:
            reference = (reference_check(path) if endpoint == "check"
                         else reference_analyze(path))
            if answer != reference:
                failures[index] = (f"/{endpoint} {Path(path).name}: "
                                   f"digests differ from the in-process "
                                   f"reference")
        return failures


WORKLOADS = {cls.name: cls for cls in (CliWarm, ServeWarm, ServeCold)}
