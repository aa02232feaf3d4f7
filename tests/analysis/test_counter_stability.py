"""The paper's cost counters are a property of the program.

CI, CS and FI ``transfers``/``meets`` (§4.3) and solution digests,
under both schedules, must not depend on whether a program was lowered
fresh or loaded from the lowering cache, nor on the process's memory
layout: nodes, ports and pairs hash by identity, so any solver loop
over a set of them would visit in address order.  The same holds for
the bytes of the summaries a solve persists, whose intern tables
follow the order facts are visited in.  Each run is a separate
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: argv: PAD CACHE ORDER — allocate PAD objects of mixed sizes (freeing
#: every other one, so later allocations land in a different layout),
#: then lower (CACHE = cache directory, or "off") and solve the suite
#: with every flavor under both schedules, hashing the pickled payloads
#: of the batched solve's summaries (CI per SCC, CS and FI whole
#: program) as the summary store writes them.  ORDER "repr" rehashes
#: pairs by their text, so every set of pairs iterates in an order
#: that PYTHONHASHSEED fixes and memory layout cannot touch.
_SCRIPT = """
import hashlib, json, pickle, sys
pad = [[None] * (i % 7) for i in range(int(sys.argv[1]))]
del pad[::2]
if sys.argv[3] == "repr":
    from repro.memory.pairs import PointsToPair
    PointsToPair.__hash__ = lambda self: hash(repr(self))
from repro.analysis.common import solution_digest
from repro.analysis.flowinsensitive import analyze_flowinsensitive
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.sensitive import analyze_sensitive
from repro.analysis.summaries import (LocationCodec, call_condensation,
                                      extract_summary)
from repro.suite.registry import PROGRAM_NAMES, load_program
cache = False if sys.argv[2] == "off" else sys.argv[2]
out = {}
for name in PROGRAM_NAMES:
    program = load_program(name, cache=cache)
    counters, digests = [], []
    for schedule in ("batched", "fifo"):
        ci = analyze_insensitive(program, schedule=schedule)
        cs = analyze_sensitive(program, ci_result=ci, schedule=schedule)
        fi = analyze_flowinsensitive(program, schedule=schedule)
        for result in (ci, cs, fi):
            counters.append([result.counters.transfers,
                             result.counters.meets])
            digests.append(solution_digest(result))
        if schedule == "batched":
            codec = LocationCodec(program)
            summaries = [extract_summary(ci, members, codec)
                         for members in call_condensation(program).sccs]
            summaries += [extract_summary(result, sorted(program.functions),
                                          codec) for result in (cs, fi)]
            blob = pickle.dumps([s.as_payload() for s in summaries],
                                protocol=5)
    out[name] = {"cache": program.extras["cache"],
                 "counters": counters, "digests": digests,
                 "summaries": hashlib.sha256(blob).hexdigest()}
print(json.dumps(out))
"""


def _solve_suite(pad: int, cache: str, hash_seed: str = "") -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    order = "id"
    if hash_seed:
        env["PYTHONHASHSEED"] = hash_seed
        order = "repr"
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(pad), cache, order],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _facts(run: dict) -> dict:
    return {name: (entry["counters"], entry["digests"], entry["summaries"])
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
    # Seed 1 reorders pairs so that a FIFO loop over a decoded
    # frozenset visibly changes a suite program's CI ``meets``.
    for seed in ("1", "2"):
        assert _facts(_solve_suite(0, "off", seed)) == _facts(miss), seed
