"""What a long-lived process keeps of the programs it solves.

A daemon pool worker lowers and solves each never-seen program once,
through ``runner.execute``, for as long as the daemon runs.  It must
keep a bounded number of them (the lowering memo), and a kept program
must carry no solver state bound to one run (handler closures), while
a repeat solve of a kept program gives the first solve's answer.
"""

from __future__ import annotations

import types

import pytest

from repro.analysis.common import solution_digest
from repro.analysis.insensitive import analyze_insensitive
from repro.analysis.stats import pair_census
from repro.frontend import cache
from repro.fuzz.generator import generate_program
from repro.runner import FLAVORS, Request, execute

#: Requests driven through one process: well past the memo's bound.
REQUESTS = 20

#: The fresh-program class of the daemon benchmark: generator seeds
#: 1-13 at 500 nodes.
FRESH_SEEDS = range(1, 14)
FRESH_MAX_NODES = 500


def _holds_closures(extras: dict) -> bool:
    for value in extras.values():
        if isinstance(value, types.FunctionType):
            return True
        if isinstance(value, dict) and any(
                isinstance(item, types.FunctionType)
                for item in value.values()):
            return True
    return False


@pytest.fixture
def fresh_paths(tmp_path):
    """``REQUESTS`` distinct fresh-class sources on disk: the generator
    pool, each copy made new by a global of its own."""
    bases = [generate_program(seed, FRESH_MAX_NODES).source
             for seed in FRESH_SEEDS]
    paths = []
    for serial in range(REQUESTS):
        path = tmp_path / f"fresh{serial}.c"
        path.write_text(bases[serial % len(bases)]
                        + f"int retention_{serial};\n")
        paths.append(path)
    return paths


def test_worker_keeps_a_bounded_memo_without_closures(tmp_path,
                                                      fresh_paths):
    cache_dir = str(tmp_path / "cache")
    payloads = []
    for path in fresh_paths:
        # As the daemon's ``/analyze`` runs it: every flavor.
        outcome = execute(Request.build(
            "analyze", (str(path),), flavors=FLAVORS, cache=cache_dir,
            payload_only=True))
        assert outcome.ok, outcome.error
        payloads.append(outcome.payload)
        assert len(cache._MEMO) <= cache._MEMO_KEPT
        for _, program in cache._MEMO.values():
            assert not _holds_closures(program.extras)

    # The most recent entry is the last request's program: solving it
    # again gives its first solve's answer and cost.
    (_, program), = list(cache._MEMO.values())[-1:]
    first = payloads[-1]["flavors"]["insensitive"]
    again = analyze_insensitive(program)
    census = pair_census(again)
    assert solution_digest(again) == first["digest"]
    assert again.counters.transfers == first["counters"]["transfers"]
    assert {"pointer": census.pointer, "function": census.function,
            "aggregate": census.aggregate, "store": census.store,
            "other": census.other, "total": census.total} \
        == first["pairs"]
    assert not _holds_closures(program.extras)
