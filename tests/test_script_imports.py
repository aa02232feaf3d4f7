"""Every ``repro`` name the benchmark and example scripts import resolves.

Most of ``benchmarks/`` and all of ``examples/`` run in no test job, so
an entry point renamed or deleted in ``src/`` would break them
silently.  This scans their sources (as ``test_layerbench_names.py``
does for ``layerbench/``) and resolves each ``from repro... import
name``: an attribute of the module, or a submodule that imports.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = sorted([*ROOT.glob("benchmarks/*.py"),
                  *ROOT.glob("examples/**/*.py")])


def _imports() -> List[Tuple[str, str]]:
    """``(module, name)`` for every ``from repro... import name``."""
    found = []
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                found += [(node.module, alias.name) for alias in node.names]
    return sorted(set(found))


def test_scan_finds_the_scripts():
    assert len(SCRIPTS) >= 20
    assert ("repro.report", "paper") in _imports()


@pytest.mark.parametrize("module,name", _imports())
def test_imported_name_resolves(module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")
