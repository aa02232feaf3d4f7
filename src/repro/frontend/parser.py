"""pycparser driver: preprocessed text → pycparser AST."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from pycparser import c_ast, c_parser

try:  # pycparser >= 3 moved ParseError out of plyparser
    from pycparser.c_parser import ParseError as PycParseError
except ImportError:  # pragma: no cover - pycparser 2.x layout
    from pycparser.plyparser import ParseError as PycParseError

from ..errors import ParseError
from .preprocess import Preprocessor

#: A fresh parser per translation unit: pycparser's parser keeps
#: typedef state between parses, which would leak across programs.


def parse_preprocessed(text: str, filename: str = "<text>") -> c_ast.FileAST:
    """Parse already-preprocessed C text."""
    parser = c_parser.CParser()
    try:
        return parser.parse(text, filename=filename)
    except AssertionError as exc:
        # Some malformed inputs trip pycparser-internal assertions
        # rather than its ParseError; surface them uniformly.
        raise ParseError(f"parser assertion: {exc}", filename) from exc
    except RecursionError:
        # pycparser descends recursively: deep nesting (parentheses,
        # blocks) exhausts the interpreter's recursion limit.
        raise ParseError("nesting too deep to parse (recursion limit "
                         "exceeded)", filename) from None
    except PycParseError as exc:
        message = str(exc)
        line: Optional[int] = None
        # pycparser errors look like "file.c:12:5: before: foo".
        parts = message.split(":")
        if len(parts) >= 2 and parts[1].isdigit():
            line = int(parts[1])
        raise ParseError(message, filename, line) from exc


def parse_source(source: str, filename: str = "<source>",
                 include_dirs: Sequence = (),
                 defines: Optional[Dict[str, str]] = None) -> c_ast.FileAST:
    """Preprocess and parse C source text."""
    pre = Preprocessor(include_dirs=include_dirs, defines=defines)
    processed = pre.process_text(source, filename)
    return parse_preprocessed(processed, filename)
