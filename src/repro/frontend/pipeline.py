"""Front-end entry points: C text and files → :class:`Program`.

:func:`lower_file` and :func:`lower_files` run preprocess → cache key
→ cache load, and import the parser and the AST lowering (:mod:`.parser`,
:mod:`.lower`, and with them pycparser) only on a cache miss, so a
warm hit never loads them.  :func:`lower_source` never caches and
always imports both.  Every step is looked up on its module at call
time, so a wrapper set on the module attribute (``layerbench``'s
per-layer tracer, a test's spy) sees each call.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import LoweringError
from ..perf import PhaseTimer
from . import cache as lowering_cache
from .preprocess import Preprocessor

if TYPE_CHECKING:
    from ..ir.graph import Program


def lower_source(source: str, name: str = "<source>",
                 include_dirs: Sequence = (),
                 defines: Optional[Dict[str, str]] = None,
                 **options) -> Program:
    """Preprocess, parse, and lower C source text."""
    from . import lower, parser

    ast = parser.parse_source(source, filename=name,
                              include_dirs=include_dirs, defines=defines)
    program = lower.lower_ast(ast, name=name, **options)
    program.source_lines = _count_source_lines(source)
    return program


def lower_file(path, include_dirs: Sequence = (),
               defines: Optional[Dict[str, str]] = None,
               cache: object = None,
               **options) -> Program:
    """Preprocess, parse, and lower a C file.

    ``cache`` enables the persistent lowering cache: ``True`` uses the
    default directory (``$REPRO_CACHE_DIR`` or ``./.repro-cache``), a
    path selects a specific directory, and ``None``/``False`` (the
    default) lowers from scratch.  Cached entries are keyed by the
    content hash of the preprocessor-reported dependency set — the
    file itself plus every ``#include``\\ d header it actually opened —
    and the lowering options, so edits to any of them invalidate
    entries automatically (see :mod:`repro.frontend.cache`).

    Frontend phase timings (``preprocess``/``parse``/``lower``, or
    ``cache_load`` on a hit) and the cache outcome land in
    ``program.extras`` for telemetry.
    """
    path = Path(path)
    timer = PhaseTimer()
    pre = Preprocessor(include_dirs=include_dirs, defines=defines)
    with timer.phase("preprocess"):
        processed = pre.process_file(path)
    cache_dir, key, cached = _load(cache, timer, pre.dependencies,
                                   include_dirs, defines, options)
    if cached is not None:
        return cached
    from . import lower, parser

    with timer.phase("parse"):
        ast = parser.parse_preprocessed(processed, str(path))
    with timer.phase("lower"):
        program = lower.lower_ast(ast, name=path.name, **options)
    program.source_lines = _count_source_lines(
        pre.dependencies[0][1].decode())
    return _store(program, timer, cache_dir, key)


def lower_files(paths: Sequence, include_dirs: Sequence = (),
                defines: Optional[Dict[str, str]] = None,
                name: Optional[str] = None, cache: object = None,
                **options) -> Program:
    """Link several translation units into one analyzable program.

    External-linkage globals share storage by name, calls resolve to
    definitions in other files, TU-local ``static`` names never
    collide, and recursion detection runs over the merged call graph —
    so footnote 4's weakly-updateable locals apply to mutual recursion
    that crosses file boundaries too.

    ``cache`` works as in :func:`lower_file`, keyed over every input
    file's dependency set (headers included).
    """
    path_list = [Path(p) for p in paths]
    if not path_list:
        raise LoweringError("lower_files needs at least one file")
    timer = PhaseTimer()
    # One fresh Preprocessor per translation unit (macro state must not
    # leak across TUs), dependencies concatenated for the cache key.
    processed_texts: List[str] = []
    dependencies: List[Tuple[str, bytes]] = []
    with timer.phase("preprocess"):
        for path in path_list:
            pre = Preprocessor(include_dirs=include_dirs, defines=defines)
            processed_texts.append(pre.process_file(path))
            dependencies.extend(pre.dependencies)
    key_options = dict(options)
    if name is not None:
        key_options["name"] = name
    cache_dir, key, cached = _load(cache, timer, dependencies,
                                   include_dirs, defines, key_options)
    if cached is not None:
        return cached
    from . import lower

    program = lower.lower_units(
        list(zip(path_list, processed_texts)),
        name or "+".join(p.name for p in path_list), timer, **options)
    program.source_lines = sum(_count_source_lines(p.read_text())
                               for p in path_list)
    return _store(program, timer, cache_dir, key)


def _load(cache_arg: object, timer: PhaseTimer,
          dependencies: Sequence[Tuple[str, bytes]],
          include_dirs: Sequence, defines: Optional[Dict[str, str]],
          options: dict) -> Tuple[Optional[Path], Optional[str],
                                  Optional[Program]]:
    """``(cache_dir, key, program)``: the cached program on a hit (its
    extras already finished), ``None`` for it on a miss or with the
    cache off (then ``cache_dir`` and ``key`` are ``None`` too)."""
    cache_dir = lowering_cache.resolve_cache_dir(cache_arg)
    if cache_dir is None:
        return None, None, None
    key = lowering_cache.compute_key(dependencies, include_dirs, defines,
                                     options)
    with timer.phase("cache_load"):
        cached = lowering_cache.load_program(cache_dir, key)
    if cached is not None:
        _finish_frontend_extras(cached, timer, "hit")
    return cache_dir, key, cached


def _store(program: Program, timer: PhaseTimer,
           cache_dir: Optional[Path], key: Optional[str]) -> Program:
    """Finish a freshly lowered program and store it on a miss."""
    _finish_frontend_extras(program, timer,
                            "miss" if cache_dir is not None else "off")
    if cache_dir is not None:
        lowering_cache.store_program(cache_dir, key, program)
    return program


def _finish_frontend_extras(program: Program, timer: PhaseTimer,
                            cache_status: str) -> None:
    """Record frontend phase timings and the cache outcome on the
    program, for telemetry records assembled further up the stack."""
    program.extras["phases"] = timer.as_dict()
    program.extras["cache"] = cache_status


def _count_source_lines(text: str) -> int:
    """Non-blank source lines, the paper's Figure 2 "lines" metric."""
    return sum(1 for line in text.splitlines() if line.strip())
