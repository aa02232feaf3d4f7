"""The benchmark's hooks into the library still resolve.

``layerbench/`` imports library names by module path for its output
references, and its tracer wraps entry points by attribute path
(``tracing.LAYERS``).  A rename that misses one of them makes every
benchmark run crash at import, so each name is resolved here, read
from the benchmark's own files.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

LAYERBENCH = Path(__file__).resolve().parent.parent / "layerbench"


def _is_repro(module: Optional[str]) -> bool:
    return module is not None and (module == "repro"
                                   or module.startswith("repro."))


def _imports() -> List[Tuple[str, Optional[str]]]:
    """``(module, name)`` for every ``from repro... import name`` and
    ``(module, None)`` for every ``import repro...`` in the benchmark."""
    found = []
    for path in sorted(LAYERBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and _is_repro(node.module):
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names
                          if _is_repro(alias.name)]
    return list(dict.fromkeys(found))


def _layers() -> List[Tuple[str, str]]:
    """``(module, attribute path)`` of every traced entry point."""
    spec = importlib.util.spec_from_file_location(
        "layerbench_tracing", LAYERBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, entries in tracing.LAYERS.items()
            for attr, _layer, _counters in entries]


def test_scan_finds_the_reference_digest():
    assert ("repro.fuzz.oracle", "solution_digest") in _imports()
    assert ("repro.serve.payload", "analysis_payload") in _layers()


@pytest.mark.parametrize("module,name", _imports())
def test_imported_name_resolves(module, name):
    imported = importlib.import_module(module)
    assert name is None or hasattr(imported, name)


@pytest.mark.parametrize("module,attr", _layers())
def test_traced_entry_point_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
