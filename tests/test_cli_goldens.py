"""CLI goldens: recorded stdout of ``analyze``, ``check`` and ``slice``.

Other CLI tests check that an output has some property; these pin the
bytes.  For each of the 13 suite programs the data file holds the
sha256 of what the CLI prints:

* ``analyze`` (both flavors) as text and as JSON;
* ``slice`` from the program's first indirect memory operation, as
  text, JSON and DOT;
* one ``check`` run over the whole suite, as text, JSON and SARIF.

Every run works in the suite's source directory and names the files
relative to it: source coordinates, and the digests computed over
them, then read the same in any checkout.  Elapsed seconds are masked.
The data file also pins every subcommand's option strings and
defaults, read from the parser.

Regenerate the data file only for an intended output change:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.suite.registry import PROGRAM_NAMES, load_program, program_path

GOLDENS = Path(__file__).with_name("cli_goldens.json")

SUITE_DIR = program_path(PROGRAM_NAMES[0]).parent

#: Wall-clock fields: text analyze's ``0.004s`` and JSON's
#: ``"elapsed_seconds": 0.0041``.
_ELAPSED = re.compile(r'\b\d+\.\d+s\b|"elapsed_seconds": [-+.0-9e]+')


def _criterion(name: str) -> str:
    """``FILE:LINE`` of the program's first indirect memory operation."""
    program = load_program(name, cache=False)
    lines = sorted(int(node.origin.rsplit(":", 1)[1])
                   for graph in program.functions.values()
                   for node in graph.memory_operations()
                   if node.is_indirect and node.origin)
    return f"{name}.c:{lines[0]}"


def _argv(case: str) -> list:
    command, fmt, name = case.split("/")
    if command == "check":
        return ["check", *(f"{n}.c" for n in PROGRAM_NAMES),
                "--format", fmt]
    if command == "slice":
        return ["slice", f"{name}.c", "--criterion", _criterion(name),
                "--format", fmt]
    return ["analyze", f"{name}.c", "--format", fmt]


def cases() -> list:
    """Every pinned invocation, as ``command/format/program``."""
    found = [f"check/{fmt}/suite" for fmt in ("text", "json", "sarif")]
    for name in PROGRAM_NAMES:
        found += [f"analyze/{fmt}/{name}" for fmt in ("text", "json")]
        found += [f"slice/{fmt}/{name}" for fmt in ("text", "json", "dot")]
    return found


def stdout_digest(case: str) -> str:
    """sha256 of one invocation's stdout, with its volatile parts
    masked.  The command must succeed."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(SUITE_DIR)
    try:
        with contextlib.redirect_stdout(out):
            code = main(_argv(case))
    finally:
        os.chdir(cwd)
    assert code == 0, case
    text = _ELAPSED.sub("<elapsed>", out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def parser_options() -> dict:
    """Per subcommand and argument (keyed by its first option string,
    so declaration order is free): every option string, the
    destination, default, choices, arity and whether it is required."""
    parser = _build_parser()
    (subparsers,) = [action for action in parser._actions
                     if action.dest == "command"]
    pinned = {}
    for command, sub in sorted(subparsers.choices.items()):
        pinned[command] = {
            (action.option_strings or [action.dest])[0]: {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": (list(action.choices)
                            if action.choices is not None else None),
                "nargs": action.nargs,
                "required": action.required,
            } for action in sub._actions if action.dest != "help"}
    return pinned


def compute() -> dict:
    return {"flags": parser_options(),
            "stdout": {case: stdout_digest(case) for case in cases()}}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module", autouse=True)
def shared_cache(tmp_path_factory):
    """One lowering cache for the module: each program lowers once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("cli-goldens-cache")))
        patch.delenv("REPRO_NO_CACHE", raising=False)
        yield


def test_every_case_is_pinned(goldens):
    assert sorted(goldens["stdout"]) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_stdout_matches_golden(goldens, case):
    assert stdout_digest(case) == goldens["stdout"][case]


def test_parser_options_match_golden(goldens):
    assert parser_options() == goldens["flags"]


if __name__ == "__main__":
    os.environ.setdefault("REPRO_NO_CACHE", "1")
    GOLDENS.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {GOLDENS}")
