"""The paper's cost counters are a property of the program.

CI and CS ``transfers``/``meets`` (§4.3) and solution digests must not
depend on whether a program was lowered fresh or loaded from the
lowering cache, nor on the process's memory layout: nodes, ports and
pairs hash by identity, so any solver loop over a set of them would
visit in address order.  Each run is a separate interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: argv: PAD CACHE — allocate PAD objects of mixed sizes (freeing every
#: other one, so later allocations land in a different layout), then
#: lower (CACHE = cache directory, or "off") and solve the suite.
_SCRIPT = """
import json, sys
pad = [[None] * (i % 7) for i in range(int(sys.argv[1]))]
del pad[::2]
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.fuzz.oracle import solution_digest
from repro.suite.registry import PROGRAM_NAMES, load_program
cache = False if sys.argv[2] == "off" else sys.argv[2]
out = {}
for name in PROGRAM_NAMES:
    program = load_program(name, cache=cache)
    ci = analyze_insensitive(program)
    cs = analyze_sensitive(program, ci_result=ci)
    out[name] = {"cache": program.extras["cache"],
                 "counters": [ci.counters.transfers, ci.counters.meets,
                              cs.counters.transfers, cs.counters.meets],
                 "digests": [solution_digest(ci), solution_digest(cs)]}
print(json.dumps(out))
"""


def _solve_suite(pad: int, cache: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(pad), cache],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _facts(run: dict) -> dict:
    return {name: (entry["counters"], entry["digests"])
            for name, entry in run.items()}


def test_counters_and_digests_ignore_cache_state_and_layout(tmp_path):
    cache = str(tmp_path / "cache")
    miss = _solve_suite(0, cache)
    hit = _solve_suite(0, cache)
    assert {e["cache"] for e in miss.values()} == {"miss"}
    assert {e["cache"] for e in hit.values()} == {"hit"}
    assert _facts(hit) == _facts(miss)
    assert _facts(_solve_suite(50_000, "off")) == _facts(miss)
    assert _facts(_solve_suite(123_457, cache)) == _facts(miss)
