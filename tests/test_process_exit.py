"""How a ``python -m repro`` process ends.

One-shot subcommands end at their last flush, with ``os._exit``
(``repro.cli.entry``), so interpreter teardown is skipped.  Each test
here starts the real ``__main__`` in its own subprocess and checks what
that must not change: the bytes on stdout, the telemetry records, the
exit status, a reader that closes early, and worker pools.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.suite.registry import program_path
from repro.telemetry import read_jsonl

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Wall-clock fields, masked as ``tests/test_cli_goldens.py`` masks them.
_ELAPSED = re.compile(r'\b\d+\.\d+s\b|"elapsed_seconds": [-+.0-9e]+')

TIMEOUT = 120


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Copies of two suite programs and an empty lowering cache, shared
    by this process (the working directory and environment of the
    in-process runs) and the CLI processes it starts."""
    for name in ("part", "bc"):
        shutil.copy(program_path(name), tmp_path / f"{name}.c")
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _env(**extra: str) -> dict:
    """This environment with ``src/`` importable and stdout
    block-buffered, as a CLI's stdout is by default, so that output
    waits for the last flush."""
    env = dict(os.environ, **extra)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    return env


def _command(*argv: str) -> list:
    return [sys.executable, "-m", "repro", *argv]


def _cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(_command(*argv), env=_env(**env),
                          capture_output=True, text=True, timeout=TIMEOUT)


def _in_process(*argv: str) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _criterion(name: str) -> str:
    """``FILE:LINE`` of the program's first indirect memory operation."""
    program = repro.parse_file(f"{name}.c")
    lines = sorted(int(node.origin.rsplit(":", 1)[1])
                   for graph in program.functions.values()
                   for node in graph.memory_operations()
                   if node.is_indirect and node.origin)
    return f"{name}.c:{lines[0]}"


@pytest.mark.parametrize("command", ["analyze", "check", "slice"])
def test_stdout_equals_in_process_main(workdir, command):
    argv = [command, "bc.c"]
    if command == "slice":
        argv += ["--criterion", _criterion("bc")]
    code, expected = _in_process(*argv)      # lowers and primes the cache
    proc = _cli(*argv)
    assert proc.returncode == code == 0, proc.stderr
    assert _ELAPSED.sub("<elapsed>", proc.stdout) == \
        _ELAPSED.sub("<elapsed>", expected)


@pytest.mark.parametrize("sink", ["file", "stdout"])
def test_telemetry_lines_are_complete(workdir, sink):
    argv = ["check", "part.c", "bc.c", "--telemetry"]
    code, _ = _in_process(*argv, "in-process.jsonl")
    expected = read_jsonl("in-process.jsonl")
    assert len(expected) == 2
    proc = _cli(*argv, "cli.jsonl" if sink == "file" else "-")
    assert proc.returncode == code == 0, proc.stderr
    if sink == "file":
        text = Path("cli.jsonl").read_text()
    else:
        text = "".join(line for line in proc.stdout.splitlines(True)
                       if line.startswith("{"))
        Path("cli.jsonl").write_text(text)
    assert text.endswith("\n")
    records = read_jsonl("cli.jsonl")
    assert [(r["kind"], r["program"]) for r in records] == \
        [(r["kind"], r["program"]) for r in expected]


def test_error_statuses(workdir):
    missing = _cli("analyze", "missing.c")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: ")
    usage = _cli("analyze", "--no-such-flag", "part.c")
    assert usage.returncode == 2
    assert "unrecognized arguments" in usage.stderr


def _early_reader(tmp_path: Path, keep: int, *argv: str) -> tuple:
    """Run the CLI into a pipe that is closed after ``keep`` bytes;
    returns (status, stderr)."""
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(_command(*argv), env=_env(),
                                stdout=subprocess.PIPE, stderr=err)
        try:
            if keep:
                assert len(proc.stdout.read(keep)) == keep
            proc.stdout.close()
            status = proc.wait(timeout=TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return status, err.read()


def test_reader_closing_mid_output_is_not_an_error(workdir):
    # About 130 kB: a write inside the handler breaks the pipe.
    assert _early_reader(workdir, 100, "analyze", "--show-pairs",
                         "bc.c") == (0, "")


def test_reader_gone_before_last_flush_is_not_an_error(workdir):
    # Under 1 kB, so nothing is written before the last flush, and the
    # pipe has no reader left by then.
    assert _early_reader(workdir, 0, "analyze", "part.c") == (0, "")


def test_pool_workers_end_with_the_cli(workdir):
    # A fault-injection directive naming no program injects nothing but
    # sends even a two-file sweep through a real worker pool.
    proc = subprocess.Popen(
        _command("analyze", "--jobs", "2", "part.c", "bc.c",
                 "--telemetry", "t.jsonl"),
        env=_env(REPRO_FAULT_INJECT="no-such-program=raise"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # Returns only once every holder of the pipes has exited.
        out, err = proc.communicate(timeout=TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert [line.split(":")[0] for line in out.splitlines()
            if " lines, " in line] == ["part.c", "bc.c"]
    workers = {record["worker_pid"] for record in read_jsonl("t.jsonl")}
    assert workers and proc.pid not in workers
