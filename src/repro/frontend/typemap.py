"""Type elaboration: pycparser declaration ASTs → :mod:`ctypes` types.

Maintains the per-translation-unit registries (typedefs, struct/union
tags, enums and their constants) and evaluates the integer constant
expressions that appear in array bounds and enumerators.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from pycparser import c_ast

from ..errors import TypeError_, UnsupportedFeatureError
from .ctypes import (
    ArrayType,
    BOOL,
    CHAR,
    CType,
    DOUBLE,
    EnumType,
    FLOAT,
    FloatType,
    FunctionType,
    INT,
    IntType,
    LONG,
    LONGDOUBLE,
    LONGLONG,
    PointerType,
    RecordType,
    SHORT,
    UNSIGNED_CHAR,
    UNSIGNED_INT,
    UNSIGNED_LONG,
    VOID,
    VoidType,
)

_BUILTIN_COMBOS: Dict[Tuple[str, ...], CType] = {}


def _register_combo(names: str, ctype: CType) -> None:
    key = tuple(sorted(names.split()))
    _BUILTIN_COMBOS[key] = ctype


for _names, _ctype in [
    ("void", VOID),
    ("_Bool", BOOL),
    ("char", CHAR),
    ("signed char", CHAR),
    ("unsigned char", UNSIGNED_CHAR),
    ("short", SHORT), ("short int", SHORT), ("signed short", SHORT),
    ("signed short int", SHORT),
    ("unsigned short", IntType("short", signed=False)),
    ("unsigned short int", IntType("short", signed=False)),
    ("int", INT), ("signed", INT), ("signed int", INT),
    ("unsigned", UNSIGNED_INT), ("unsigned int", UNSIGNED_INT),
    ("long", LONG), ("long int", LONG), ("signed long", LONG),
    ("signed long int", LONG),
    ("unsigned long", UNSIGNED_LONG), ("unsigned long int", UNSIGNED_LONG),
    ("long long", LONGLONG), ("long long int", LONGLONG),
    ("signed long long", LONGLONG), ("signed long long int", LONGLONG),
    ("unsigned long long", IntType("longlong", signed=False)),
    ("unsigned long long int", IntType("longlong", signed=False)),
    ("float", FLOAT),
    ("double", DOUBLE),
    ("long double", LONGDOUBLE),
]:
    _register_combo(_names, _ctype)


class TypeContext:
    """Registries for one translation unit."""

    def __init__(self) -> None:
        self.typedefs: Dict[str, CType] = {}
        self.records: Dict[str, RecordType] = {}
        self.enums: Dict[str, EnumType] = {}
        self.enum_constants: Dict[str, int] = {}
        self._anon = itertools.count(1)

    # -- typedefs ------------------------------------------------------------

    def register_typedef(self, node: c_ast.Typedef) -> None:
        self.typedefs[node.name] = self.type_of(node.type)

    # -- main entry ------------------------------------------------------------

    def type_of(self, node) -> CType:
        """Elaborate any pycparser type node.

        Declarator chains (pointers, arrays, type names, declarations)
        are walked in a loop, outermost first, and the derived types
        built innermost first: a type nested thousands of levels deep
        costs no stack."""
        #: One entry per pointer (None) or array ((length,)) level.
        derived: List[Optional[Tuple[Optional[int]]]] = []
        while True:
            if isinstance(node, (c_ast.Typename, c_ast.Decl)):
                node = node.type
            elif isinstance(node, c_ast.PtrDecl):
                derived.append(None)
                node = node.type
            elif isinstance(node, c_ast.ArrayDecl):
                derived.append((None if node.dim is None
                                else self.const_eval(node.dim),))
                node = node.type
            else:
                break
        if isinstance(node, c_ast.TypeDecl):
            ctype = self._base_type(node.type)
        elif isinstance(node, c_ast.FuncDecl):
            ctype = self._function_type(node)
        elif isinstance(node, (c_ast.Struct, c_ast.Union, c_ast.Enum,
                               c_ast.IdentifierType)):
            ctype = self._base_type(node)
        else:
            raise TypeError_(
                f"cannot elaborate type node {type(node).__name__}",
                line=getattr(getattr(node, "coord", None), "line", None))
        for level in reversed(derived):
            ctype = (PointerType(ctype) if level is None
                     else ArrayType(ctype, level[0]))
        return ctype

    def _base_type(self, node) -> CType:
        if isinstance(node, c_ast.IdentifierType):
            names = tuple(node.names)
            if len(names) == 1 and names[0] in self.typedefs:
                return self.typedefs[names[0]]
            combo = _BUILTIN_COMBOS.get(tuple(sorted(names)))
            if combo is None:
                raise TypeError_(f"unknown type {' '.join(names)!r}",
                                 line=getattr(node.coord, "line", None))
            return combo
        if isinstance(node, (c_ast.Struct, c_ast.Union)):
            return self._record_type(node)
        if isinstance(node, c_ast.Enum):
            return self._enum_type(node)
        raise TypeError_(f"unknown base type node {type(node).__name__}")

    # -- records ------------------------------------------------------------------

    def _record_key(self, node) -> str:
        kind = "union" if isinstance(node, c_ast.Union) else "struct"
        tag = node.name or f"<anon{next(self._anon)}>"
        return f"{kind} {tag}", tag

    def _record_type(self, node) -> RecordType:
        is_union = isinstance(node, c_ast.Union)
        key, tag = self._record_key(node)
        record = self.records.get(key)
        if record is None:
            record = RecordType(tag, is_union=is_union)
            self.records[key] = record
        if node.decls is not None:
            members: List[Tuple[str, CType]] = []
            for decl in node.decls:
                if decl.name is None:
                    raise UnsupportedFeatureError(
                        "anonymous struct/union members are not supported",
                        line=getattr(decl.coord, "line", None))
                if getattr(decl, "bitsize", None) is not None:
                    # Bit-fields carry no addresses; treat as plain members.
                    pass
                members.append((decl.name, self.type_of(decl.type)))
            record.complete(members)
        return record

    # -- enums --------------------------------------------------------------------

    def _enum_type(self, node: c_ast.Enum) -> EnumType:
        tag = node.name or f"<anon{next(self._anon)}>"
        enum = self.enums.get(tag)
        if enum is None:
            enum = EnumType(tag)
            self.enums[tag] = enum
        if node.values is not None:
            next_value = 0
            for enumerator in node.values.enumerators:
                if enumerator.value is not None:
                    next_value = self.const_eval(enumerator.value)
                self.enum_constants[enumerator.name] = next_value
                next_value += 1
        return enum

    # -- function types ---------------------------------------------------------------

    def _function_type(self, node: c_ast.FuncDecl) -> FunctionType:
        return_type = self.type_of(node.type)
        params: List[CType] = []
        varargs = False
        if node.args is not None:
            for param in node.args.params:
                if isinstance(param, c_ast.EllipsisParam):
                    varargs = True
                    continue
                if isinstance(param, c_ast.ID):
                    raise UnsupportedFeatureError(
                        "K&R-style parameter declarations are not "
                        "supported",
                        line=getattr(param.coord, "line", None))
                ptype = self.type_of(param.type)
                if isinstance(ptype, VoidType):
                    continue  # (void) parameter list
                # Parameters of array/function type adjust to pointers.
                if isinstance(ptype, ArrayType):
                    ptype = PointerType(ptype.element)
                elif isinstance(ptype, FunctionType):
                    ptype = PointerType(ptype)
                params.append(ptype)
        return FunctionType(return_type, params, varargs)

    def param_names(self, node: c_ast.FuncDecl) -> List[Optional[str]]:
        """Declared parameter names, aligned with the function type's
        parameter list (void and ellipsis entries removed)."""
        names: List[Optional[str]] = []
        if node.args is None:
            return names
        for param in node.args.params:
            if isinstance(param, c_ast.EllipsisParam):
                continue
            ptype = self.type_of(param.type)
            if isinstance(ptype, VoidType):
                continue
            names.append(getattr(param, "name", None))
        return names

    # -- constant expressions -----------------------------------------------------------

    def const_eval(self, node) -> int:
        """Evaluate an integer constant expression (array bounds,
        enumerators, case labels)."""
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "long long int",
                             "unsigned int", "unsigned long int",
                             "unsigned long long int"):
                return int_literal(node.value)
            if node.type == "char":
                return _char_value(node.value)
            raise TypeError_(f"non-integer constant {node.value!r}",
                             line=getattr(node.coord, "line", None))
        if isinstance(node, c_ast.ID):
            if node.name in self.enum_constants:
                return self.enum_constants[node.name]
            raise TypeError_(f"{node.name!r} is not an integer constant",
                             line=getattr(node.coord, "line", None))
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "sizeof":
                return self.type_of(node.expr).size_of()
            value = self.const_eval(node.expr)
            if node.op == "-":
                return -value
            if node.op == "+":
                return value
            if node.op == "~":
                return ~value
            if node.op == "!":
                return int(not value)
            raise TypeError_(f"bad constant unary {node.op!r}")
        if isinstance(node, c_ast.BinaryOp):
            left = self.const_eval(node.left)
            right = self.const_eval(node.right)
            ops = {
                "+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else 0,
                "%": lambda: left % right if right else 0,
                "<<": lambda: left << right, ">>": lambda: left >> right,
                "&": lambda: left & right, "|": lambda: left | right,
                "^": lambda: left ^ right,
                "==": lambda: int(left == right),
                "!=": lambda: int(left != right),
                "<": lambda: int(left < right), ">": lambda: int(left > right),
                "<=": lambda: int(left <= right),
                ">=": lambda: int(left >= right),
                "&&": lambda: int(bool(left) and bool(right)),
                "||": lambda: int(bool(left) or bool(right)),
            }
            handler = ops.get(node.op)
            if handler is None:
                raise TypeError_(f"bad constant binary {node.op!r}")
            return handler()
        if isinstance(node, c_ast.TernaryOp):
            return (self.const_eval(node.iftrue)
                    if self.const_eval(node.cond)
                    else self.const_eval(node.iffalse))
        if isinstance(node, c_ast.Cast):
            return self.const_eval(node.expr)
        raise TypeError_(
            f"not a constant expression: {type(node).__name__}",
            line=getattr(getattr(node, "coord", None), "line", None))


def int_literal(text: str) -> int:
    """Decode a C integer literal (decimal, 0x hex, leading-0 octal)."""
    cleaned = text.rstrip("uUlL")
    if len(cleaned) > 1 and cleaned[0] == "0" and cleaned[1] not in "xXbB":
        return int(cleaned, 8)
    return int(cleaned, 0)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


def _char_value(literal: str) -> int:
    body = literal[1:-1]
    if body.startswith("\\"):
        rest = body[1:]
        if rest and rest[0] in "xX":
            return int(rest[1:], 16)
        if rest and rest[0].isdigit():
            return int(rest, 8)
        return ord(_ESCAPES.get(rest[:1], rest[:1] or "\0"))
    return ord(body[0]) if body else 0


def decode_string_literal(literal: str) -> str:
    """Decode a C string literal's escapes (for length statistics)."""
    body = literal[1:-1]
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(body):
            break
        esc = body[i]
        if esc in "xX":
            j = i + 1
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            out.append(chr(int(body[i + 1:j] or "0", 16) & 0xFF))
            i = j
            continue
        if esc.isdigit():
            j = i
            while j < len(body) and j < i + 3 and body[j].isdigit():
                j += 1
            out.append(chr(int(body[i:j], 8) & 0xFF))
            i = j
            continue
        out.append(_ESCAPES.get(esc, esc))
        i += 1
    return "".join(out)
