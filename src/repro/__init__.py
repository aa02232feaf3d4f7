"""repro — reproduction of Ruf, *Context-Insensitive Alias Analysis
Reconsidered* (PLDI 1995).

A points-to analysis framework for C built on a VDG-style sparse IR,
with both the paper's context-insensitive (Figure 1) and maximally
context-sensitive (Figure 5) algorithms, the benchmark suite, and the
statistics machinery that regenerates every figure in the evaluation.

Quickstart::

    import repro

    program = repro.parse_source('''
        int g; int *p;
        void set(int **q) { *q = &g; }
        int main(void) { set(&p); *p = 1; return 0; }
    ''')
    ci = repro.analyze(program)                        # Figure 1
    cs = repro.analyze(program, sensitivity="sensitive")  # Figure 5
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from .errors import (
    AnalysisError,
    FrontendError,
    IRError,
    ParseError,
    PreprocessorError,
    ReproError,
    SuiteError,
    UnsupportedFeatureError,
)

if TYPE_CHECKING:
    from .analysis.common import AnalysisResult
    from .ir.graph import Program

__version__ = "1.0.0"

#: Public names defined outside :mod:`repro.errors`, by defining
#: module.  They load on first access (module ``__getattr__``), so
#: ``import repro`` — and every ``repro.*`` submodule import — loads
#: only :mod:`repro.errors`.
_LAZY = {
    "AnalysisResult": "analysis.common",
    "PointsToSolution": "analysis.common",
    "analyze_insensitive": "analysis.insensitive",
    "analyze_sensitive": "analysis.sensitive",
    "GraphBuilder": "ir.builder",
    "Program": "ir.graph",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def analyze(program: Program, sensitivity: str = "insensitive",
            **kwargs) -> AnalysisResult:
    """Run a points-to analysis over a lowered program.

    ``sensitivity`` selects the algorithm: ``"insensitive"`` (paper
    Section 3), ``"sensitive"`` (Section 4), or ``"flowinsensitive"``
    (the Weihl-style program-wide baseline).
    """
    if sensitivity == "insensitive":
        from .analysis.insensitive import analyze_insensitive
        return analyze_insensitive(program, **kwargs)
    if sensitivity == "sensitive":
        from .analysis.sensitive import analyze_sensitive
        return analyze_sensitive(program, **kwargs)
    if sensitivity == "flowinsensitive":
        from .analysis.flowinsensitive import analyze_flowinsensitive
        return analyze_flowinsensitive(program, **kwargs)
    raise ValueError(f"unknown sensitivity {sensitivity!r}")


def parse_source(source: str, name: str = "<source>", **kwargs) -> Program:
    """Preprocess, parse, and lower C source text to an analyzable
    :class:`~repro.ir.graph.Program`."""
    from .frontend.pipeline import lower_source

    return lower_source(source, name=name, **kwargs)


def parse_file(path, **kwargs) -> Program:
    """Preprocess, parse, and lower a C file."""
    from .frontend.pipeline import lower_file

    return lower_file(path, **kwargs)


def parse_files(paths, **kwargs) -> Program:
    """Link several C files into one analyzable program (external
    globals share storage, calls resolve across files, ``static``
    names stay file-local)."""
    from .frontend.pipeline import lower_files

    return lower_files(paths, **kwargs)


__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "FrontendError",
    "GraphBuilder",
    "IRError",
    "ParseError",
    "PointsToSolution",
    "PreprocessorError",
    "Program",
    "ReproError",
    "SuiteError",
    "UnsupportedFeatureError",
    "analyze",
    "analyze_insensitive",
    "analyze_sensitive",
    "parse_file",
    "parse_files",
    "parse_source",
    "__version__",
]
