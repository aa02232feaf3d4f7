"""Warm paths import only what they run.

A warm ``repro analyze``/``check``/``slice`` solves in milliseconds and
can spend far longer importing, so the modules a warm run loads are
pinned here.  Each case runs in a fresh interpreter and reports
``sys.modules`` at exit; the assertions are on module sets, never on
times.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.suite.registry import program_path

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no warm path may load: numpy (no path needs it), pycparser
#: and the AST lowering (cache misses only), the process pool, the
#: experiment drivers, the incremental engine, and ``dataclasses``
#: with the ``inspect`` it imports (warm-path modules define plain
#: classes on ``repro.record.Record``).
FORBIDDEN = ("numpy", "pycparser", "multiprocessing",
             "repro.frontend.lower", "repro.report.experiments",
             "repro.analysis.incremental", "dataclasses", "inspect")

#: Runs the given code, then writes the loaded module names to the
#: file named by the last argument: when the code returns or raises,
#: or when it ends the process with ``os._exit`` (the CLI's fast exit,
#: which skips the ``finally``).
_REPORT = """
import json, os, sys
out = sys.argv.pop()

def report():
    with open(out, "w") as fh:
        json.dump(sorted(sys.modules), fh)

def exit_now(status, _exit=os._exit):
    report()
    _exit(status)

os._exit = exit_now
try:
    exec(sys.argv.pop(1))
finally:
    report()
"""

#: ``python -m repro ARGS`` (``-m`` runs the package's ``__main__``).
_CLI = """
import runpy
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""


@pytest.fixture
def workdir(tmp_path):
    """A copy of one suite program next to an empty lowering cache."""
    shutil.copy(program_path("part"), tmp_path / "part.c")
    return tmp_path


def _env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    return env


def _loaded(workdir: Path, code: str, *argv: str) -> set:
    out = workdir / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT, code, *argv, str(out)],
        cwd=workdir, env=_env(workdir), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text()))


def _forbidden(modules: set) -> list:
    return sorted(m for m in modules
                  if any(m == f or m.startswith(f + ".") for f in FORBIDDEN))


def _criterion(workdir: Path) -> str:
    program = repro.parse_file(workdir / "part.c")
    lines = sorted(int(node.origin.rsplit(":", 1)[1])
                   for graph in program.functions.values()
                   for node in graph.memory_operations()
                   if node.is_indirect and node.origin)
    return f"part.c:{lines[0]}"


def test_import_repro_loads_only_errors(workdir):
    modules = _loaded(workdir, "import repro")
    assert sorted(m for m in modules if m.startswith("repro")) == \
        ["repro", "repro.errors"]
    assert _forbidden(modules) == []


def test_import_cli_stays_light(workdir):
    assert _forbidden(_loaded(workdir, "import repro.cli")) == []


@pytest.mark.parametrize("command", ["analyze", "check", "slice"])
def test_warm_subcommand_imports_only_what_it_runs(workdir, command):
    argv = [command, "part.c"]
    if command == "slice":
        argv += ["--criterion", _criterion(workdir)]
    cold = _loaded(workdir, _CLI, *argv)   # lowers and primes the cache
    assert "pycparser" in cold
    warm = _loaded(workdir, _CLI, *argv)
    assert _forbidden(warm) == []


#: One ``serve-cold`` fresh-class solve: a generated program with
#: enough dense masks to reach every decode path, run as the daemon's
#: workers run it, with all three flavors, cache and incremental on.
_SERVE_COLD = """
from repro.runner import FLAVORS, Request, execute
outcome = execute(Request.build("analyze", ("fresh.c",), flavors=FLAVORS,
                                incremental=True, payload_only=True))
assert outcome.error is None, outcome.error
assert set(outcome.payload["flavors"]) == set(FLAVORS)
"""


def test_cold_serve_solve_never_imports_numpy(workdir):
    # Generated here, so that only the worker's own imports are seen:
    # neither numpy nor the fuzz harness and its fixpoint verifier.
    from repro.fuzz.generator import generate_program

    (workdir / "fresh.c").write_text(generate_program(1, 500).source)
    modules = _loaded(workdir, _SERVE_COLD)
    assert "numpy" not in modules
    assert sorted(m for m in modules
                  if m == "repro.fuzz" or m.startswith("repro.fuzz.")
                  or m == "repro.analysis.verify") == []


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
