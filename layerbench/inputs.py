"""Seeded inputs: op sequences, edit-class sources, fresh-class
renaming salts and slice-criterion picks.

Everything derives from the workload seed through :func:`rng`, so the
same seed gives byte-identical inputs and op sequences on every run
and on both commits of a comparison, and a different seed gives
different ones (``selftest.py`` checks both).  The program under test
only ever sees what these functions produce.
"""

from __future__ import annotations

import random
import re
from typing import Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Generator seeds of the fresh-class programs.  A fixed pool: the
#: generator's programs differ about 4x in analysis work at the same
#: size (and no source feature predicts which), so programs drawn per
#: workload seed would make a fresh-class median depend on the seed.
#: The workload seed instead picks the order and renames every
#: generated identifier, which makes each request's text and every
#: function body new to the daemon — a full cold solve with no summary
#: reuse — at the same work on every run.
FRESH_GENERATOR_SEEDS = tuple(range(1, 14))

#: serve-cold edit ops per fresh op.  An edit costs about a tenth of a
#: fresh solve and its median is taken over 13 programs whose costs
#: differ 3x, so it needs more samples per program than one a round.
EDITS_PER_FRESH = 2

#: ``max_nodes`` handed to the fuzz generator for fresh-class programs
#: (about 800-900 lowered VDG nodes each).
FRESH_MAX_NODES = 500

#: Every identifier the fuzz generator invents (globals, helpers,
#: locals, loop counters); struct tags, fields and parameters stay.
_GENERATED_NAME = re.compile(r"\b(g\d+|ga|gp|gs|h\d+|li\d+|v\d+|x\d+)\b")

#: Declarations the edit class inserts; ``{n}`` makes each edit's text
#: new to the daemon.
_EDIT_TEMPLATES = ("int layerbench_edit_{n};",
                   "static int *layerbench_edit_{n};",
                   "char layerbench_edit_{n}[{m}];",
                   "struct layerbench_edit_{n} {{ int *p; int v; }};")

_TOP_LEVEL_END = re.compile(r"^\}\s*;?\s*$")


def rng(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"layerbench:{seed}:{purpose}")


def rounds(seed: int, items: Sequence[T], purpose: str = "rounds"
           ) -> Iterator[List[T]]:
    """Endless rounds, each a seeded permutation of every item.

    The timed phase runs whole rounds, so every run sees each item the
    same number of times and a class median is taken over the same
    multiset of inputs whatever the seed.
    """
    stream = rng(seed, purpose)
    while True:
        yield stream.sample(list(items), len(items))


def pick_criterion(seed: int, program: str, origins: Sequence[str]) -> str:
    """A seeded ``file:line`` origin of ``program`` to slice from."""
    candidates = sorted(set(o for o in origins if o))
    if not candidates:
        raise ValueError(f"{program}: no indirect memory operation origins")
    return rng(seed, f"criterion:{program}").choice(candidates)


def insertion_points(source: str) -> List[int]:
    """Line indices where a new file-scope declaration is valid C: the
    top of the file, and after each line that closes a top-level body
    (a ``}`` in column 0)."""
    lines = source.splitlines()
    return [0] + [i + 1 for i, line in enumerate(lines)
                  if _TOP_LEVEL_END.match(line)]


def edit_source(seed: int, program: str, source: str, serial: int) -> str:
    """``source`` with one seeded valid-C declaration inserted.

    ``serial`` numbers the edit within the run so no two edits share
    text; the line and its position come from the seed.
    """
    stream = rng(seed, f"edit:{program}:{serial}")
    template = stream.choice(_EDIT_TEMPLATES)
    line = template.format(n=f"{serial}_{stream.randrange(10**6)}",
                           m=stream.randrange(1, 64))
    lines = source.splitlines()
    at = stream.choice(insertion_points(source))
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


def fresh_sources() -> List[str]:
    """The fresh-class pool, as generated (identifiers not yet salted)."""
    from repro.fuzz.generator import generate_program

    return [generate_program(g, FRESH_MAX_NODES).source
            for g in FRESH_GENERATOR_SEEDS]


def fresh_source(seed: int, base: str, serial: int) -> str:
    """``base`` with every generated identifier renamed by a salt of
    (seed, serial), so no two fresh ops of a run share any text."""
    salt = f"s{rng(seed, f'fresh:{serial}').randrange(16**8):08x}"
    return _GENERATED_NAME.sub(lambda m: f"{m.group(1)}_{salt}", base)


def cold_ops(seed: int, programs: Sequence[str]
             ) -> Iterator[List[Tuple[str, int, int]]]:
    """serve-cold rounds of ``(class, index, serial)``: every pool
    program once as a fresh op, each after :data:`EDITS_PER_FRESH` edit
    ops, so every suite program is edited that many times a round; all
    orders seeded."""
    assert len(programs) == len(FRESH_GENERATOR_SEEDS)
    serial = 0
    edits = rounds(seed, range(len(programs)), "edit-rounds")
    fresh = rounds(seed, range(len(FRESH_GENERATOR_SEEDS)), "fresh-rounds")
    while True:
        edit_order = [i for _ in range(EDITS_PER_FRESH) for i in next(edits)]
        ops = []
        for slot, pool in enumerate(next(fresh)):
            for edit in edit_order[slot * EDITS_PER_FRESH:
                                   (slot + 1) * EDITS_PER_FRESH]:
                ops.append(("edit", edit, serial))
                serial += 1
            ops.append(("fresh", pool, serial))
            serial += 1
        yield ops
