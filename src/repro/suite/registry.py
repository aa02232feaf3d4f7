"""The benchmark suite: 13 programs named after the paper's Figure 2.

The original benchmarks (from Landi, Austin, the FSF, and SPEC92) are
not redistributable; these are synthetic stand-ins written for this
reproduction with the same names, domains, and pointer-usage character
— see DESIGN.md's substitution table for why that preserves the
evaluation's shape.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, List

from ..errors import SuiteError
from ..frontend.pipeline import lower_file

if TYPE_CHECKING:
    from ..ir.graph import Program

#: Figure 2's benchmark names, in the paper's order.
PROGRAM_NAMES: List[str] = [
    "allroots",
    "anagram",
    "assembler",
    "backprop",
    "bc",
    "compiler",
    "compress",
    "lex315",
    "loader",
    "part",
    "simulator",
    "span",
    "yacr2",
]

_PROGRAMS_DIR = Path(__file__).parent / "programs"


def program_path(name: str) -> Path:
    """Path to a suite program's C source."""
    if name not in PROGRAM_NAMES:
        raise SuiteError(
            f"unknown suite program {name!r}; expected one of "
            f"{', '.join(PROGRAM_NAMES)}")
    path = _PROGRAMS_DIR / f"{name}.c"
    if not path.is_file():
        raise SuiteError(f"suite program source missing: {path}")
    return path


def source_text(name: str) -> str:
    """The C source of a suite program."""
    return program_path(name).read_text()


def load_program(name: str, cache: object = True, **options) -> Program:
    """Preprocess, parse, and lower one suite program.

    Suite sources are immutable single files, so the persistent
    lowering cache is on by default (a content-hash key still catches
    local edits); pass ``cache=False`` or set ``REPRO_NO_CACHE=1`` to
    lower from scratch.
    """
    return lower_file(program_path(name), cache=cache, **options)


def fuzz_corpus(seed: int = 0, count: int = 20, max_nodes: int = 80):
    """A deterministic corpus of generated pointer programs.

    Thin wrapper over :func:`repro.fuzz.generator.generate_program`
    so tests and benchmarks can ask the suite layer for synthetic
    inputs the same way they ask for the Figure 2 stand-ins.  The
    corpus is a pure function of ``(seed, count, max_nodes)``.
    """
    from ..fuzz.generator import generate_program

    return [generate_program(seed + i, max_nodes=max_nodes)
            for i in range(count)]
