"""Lowering: pycparser ASTs → VDG function graphs.

This pass plays the role of the paper's VDG compiler front end.  The
essential properties it establishes (Section 2 / §5.1.1 "program
representation"):

* **Explicit store threading** — every memory access is a ``lookup`` or
  ``update`` node consuming the current store value; calls thread the
  store through callees.

* **Sparse representation** — locals whose address is never taken (and
  that are not aggregates or statics) never touch the store; they live
  in an SSA-style environment, merged at control-flow joins.  This is
  the paper's "SSA-like transformation that removes non-addressed
  variables from the store".

* **Access-path construction** — ``&x``, ``x.f``, ``a[i]``, ``p->f``
  produce interned access paths; address arithmetic on statically
  known locations is folded so that direct accesses keep constant
  location inputs (which is what makes Figure 4's direct/indirect
  distinction meaningful).

* **Base-location discipline** — one location per variable, one heap
  location per static allocator call site, string-literal storage, a
  FUNCTION location per defined function, and weakly-updateable
  locations for locals of recursive procedures (footnote 4, scheme 2).

Unsupported C (mirroring the paper's Section 2 caveats): casts between
pointer and non-pointer types, ``goto``/labels, ``signal``/``longjmp``
(via the library models), and calls that invoke invisible function
pointers (``qsort``).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from pycparser import c_ast

from ..errors import LoweringError, TypeError_, UnsupportedFeatureError
from ..memory.access import AccessPath, INDEX, location_path
from ..memory.base import (
    BaseLocation,
    LocationKind,
    function_location,
    global_location,
    heap_location,
    local_location,
    null_location,
    param_location,
    string_location,
    uninit_location,
)
from ..memory.pairs import PointsToPair, direct, pair as make_pair
from ..ir.builder import GraphBuilder, unify_tags
from ..ir.graph import FunctionGraph, Program
from ..ir.nodes import AddressNode, MergeNode, OutputPort, ValueTag
from ..ir.simplify import simplify_program
from ..ir.validate import validate_program
from .ctypes import (
    ArrayType,
    CHAR,
    CType,
    EnumType,
    FloatType,
    FunctionType,
    INT,
    IntType,
    PointerType,
    RecordType,
    VOID,
    VoidType,
    decay,
    pointer_to,
)
from .libmodels import LibModel, model_for
from .parser import parse_preprocessed
# The C-text and C-file entry points live in :mod:`.pipeline`.
from .pipeline import lower_file, lower_files, lower_source  # noqa: F401
from .prepasses import PrepassInfo, run_prepasses
from .symbols import Symbol, SymbolKind, SymbolTable
from .typemap import (
    TypeContext,
    _char_value,
    decode_string_literal,
    int_literal,
)


def _line(node) -> Optional[int]:
    coord = getattr(node, "coord", None)
    return getattr(coord, "line", None)


def _origin(node) -> Optional[str]:
    coord = getattr(node, "coord", None)
    if coord is None:
        return None
    return f"{coord.file}:{coord.line}"


# ---------------------------------------------------------------------------
# Storage bindings
# ---------------------------------------------------------------------------


class Binding:
    """How a variable's storage is realized."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol) -> None:
        self.symbol = symbol


class RegisterBinding(Binding):
    """SSA value in the environment; never in the store."""


class MemoryBinding(Binding):
    """Store-resident variable with its own base-location."""

    __slots__ = ("location",)

    def __init__(self, symbol: Symbol, location: BaseLocation) -> None:
        super().__init__(symbol)
        self.location = location


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------


class LValue:
    __slots__ = ("ctype",)

    def __init__(self, ctype: CType) -> None:
        self.ctype = ctype


class RegisterLValue(LValue):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol) -> None:
        super().__init__(symbol.ctype)
        self.symbol = symbol


class MemoryLValue(LValue):
    __slots__ = ("addr",)

    def __init__(self, addr: OutputPort, ctype: CType) -> None:
        super().__init__(ctype)
        self.addr = addr


# ---------------------------------------------------------------------------
# Module-level lowering
# ---------------------------------------------------------------------------


class Linkage:
    """Shared state when linking several translation units.

    External-linkage globals share one base-location by name; the set
    of externally defined functions lets a translation unit call a
    procedure whose body lives in another file; TU-local ``static``
    functions get qualified program names so they never collide.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        #: External-linkage global variable locations, by name.
        self.global_locations: Dict[str, BaseLocation] = {}
        #: External-linkage function names with a definition somewhere.
        self.defined_functions: Dict[str, FunctionType] = {}
        #: Names whose initializer has been seen (double-definition check).
        self.initialized_globals: set = set()


class ModuleLowerer:
    """Lowers one translation unit to a :class:`Program`.

    Standalone use (``run()``) produces a complete program from one
    file; :func:`lower_files` drives several ModuleLowerers sharing a
    :class:`Linkage` to build a multi-file program.
    """

    def __init__(self, ast: c_ast.FileAST, name: str,
                 roots: Optional[Sequence[str]] = None,
                 extern_policy: str = "warn",
                 synthesize_root_environment: bool = True,
                 simplify: bool = True,
                 sparse: bool = True,
                 hazard_model: bool = False,
                 linkage: Optional[Linkage] = None,
                 tu_name: Optional[str] = None) -> None:
        if extern_policy not in ("warn", "error"):
            raise ValueError(f"bad extern_policy {extern_policy!r}")
        self.ast = ast
        self.linkage = linkage
        self.tu_name = tu_name or name
        self.program = linkage.program if linkage is not None \
            else Program(name)
        self.types = TypeContext()
        self.symbols = SymbolTable()
        self.roots = list(roots) if roots is not None else None
        self.extern_policy = extern_policy
        self.synthesize_root_environment = synthesize_root_environment
        self.simplify = simplify
        #: sparse=True is the paper's VDG representation (non-addressed
        #: scalars live in an SSA environment); sparse=False forces
        #: every local into the store, approximating a classic
        #: control-flow-graph representation — the paper: the analyses
        #: "apply equally well to control-flow graph representations;
        #: they merely run faster on the VDG because it is more sparse".
        self.sparse = sparse
        #: hazard_model=True (the checker clients' lowering mode) adds
        #: two SUMMARY base-locations — ``<null>`` becomes the referent
        #: of the null pointer, and every uninitialized pointer-valued
        #: local starts out pointing at ``<uninit>`` (strong updates
        #: kill the marker on initialization).  Off by default: it
        #: perturbs every pair count, so the paper tables never see it.
        self.hazard: Optional[Dict[str, BaseLocation]] = None
        if hazard_model:
            hazard = self.program.extras.get("hazard")
            if hazard is None:
                hazard = {
                    "null": self.program.register_location(null_location()),
                    "uninit":
                        self.program.register_location(uninit_location()),
                }
                self.program.extras["hazard"] = hazard
            self.hazard = hazard

        self.bindings: Dict[Symbol, Binding] = {}
        #: Function bodies keyed by *program* name (== source name,
        #: except for TU-local statics in linked builds).
        self.func_defs: Dict[str, c_ast.FuncDef] = {}
        #: Source name per program name (prepass queries use these).
        self.func_source_names: Dict[str, str] = {}
        self.func_symbols: Dict[str, Symbol] = {}
        self.prepass: Optional[PrepassInfo] = None
        #: Extra program-name recursion facts from cross-TU linking.
        self.linked_recursive: set = set()
        self.warnings: List[str] = []
        self._string_counter = itertools.count(1)
        self._heap_counter = itertools.count(1)
        self._env_counter = itertools.count(1)
        #: Heap location per allocator call-site AST node.
        self._heap_sites: Dict[int, BaseLocation] = {}

    # -- driver ----------------------------------------------------------------

    def run(self) -> Program:
        """Standalone single-file lowering."""
        self.collect()
        self.lower_bodies()
        self.finish()
        return self.program

    def collect(self) -> None:
        """Stage 1: declarations (types, globals, function graphs)."""
        self._collect_declarations()
        source_defs = {self.func_source_names[name]: funcdef
                       for name, funcdef in self.func_defs.items()}
        self.prepass = run_prepasses(source_defs,
                                     set(self.func_symbols))

    def lower_bodies(self) -> None:
        """Stage 2: lower every function body."""
        for name, funcdef in self.func_defs.items():
            FunctionLowerer(self, name, funcdef).run()

    def finish(self) -> None:
        """Stage 3: roots, environments, simplification, validation."""
        self._select_roots()
        if self.synthesize_root_environment:
            self._synthesize_environments()
        if self.simplify:
            simplify_program(self.program)
        validate_program(self.program)
        existing = self.program.extras.get("warnings", [])
        self.program.extras["warnings"] = list(existing) + \
            [w for w in self.warnings if w not in existing]

    # -- pass 1: declarations ----------------------------------------------------

    def _collect_declarations(self) -> None:
        for ext in self.ast.ext:
            if isinstance(ext, c_ast.Typedef):
                self.types.register_typedef(ext)
            elif isinstance(ext, c_ast.FuncDef):
                self._declare_function_def(ext)
            elif isinstance(ext, c_ast.Decl):
                self._declare_global(ext)
            elif isinstance(ext, c_ast.Pragma):
                continue
            else:
                raise UnsupportedFeatureError(
                    f"unsupported top-level construct "
                    f"{type(ext).__name__}", line=_line(ext))

    def _declare_function_def(self, funcdef: c_ast.FuncDef) -> None:
        decl = funcdef.decl
        name = decl.name
        ftype = self.types.type_of(decl.type)
        if not isinstance(ftype, FunctionType):
            raise LoweringError(f"{name} is not a function", line=_line(decl))
        storage = set(decl.storage or ())
        is_static = "static" in storage
        program_name = name
        if self.linkage is not None and is_static:
            # TU-local: qualify so statics in other files cannot collide.
            program_name = f"{self.tu_name}::{name}"
        symbol = self._declare_function_symbol(name, ftype)
        symbol.defined = True
        symbol.link_name = program_name
        if program_name in self.func_defs:
            raise TypeError_(f"redefinition of function {name!r}",
                             line=_line(decl))
        if self.linkage is not None and not is_static:
            if name in self.linkage.defined_functions:
                raise TypeError_(
                    f"multiple definitions of {name!r} across "
                    f"translation units", line=_line(decl))
            self.linkage.defined_functions[name] = ftype
        self.func_defs[program_name] = funcdef
        self.func_source_names[program_name] = name
        # A static initializer earlier in the file may have referenced
        # this function already (e.g. a global function-pointer table);
        # reuse its location so both resolve to the same object.
        loc = self.program.function_locations.get(program_name)
        if loc is None:
            loc = self.program.register_location(
                function_location(program_name))
        graph = FunctionGraph(program_name)
        self.program.add_function(graph, loc)

    def _declare_function_symbol(self, name: str,
                                 ftype: FunctionType) -> Symbol:
        existing = self.symbols.lookup(name)
        if existing is not None and existing.kind is SymbolKind.FUNCTION:
            existing.ctype = ftype  # later declaration may add parameters
            return existing
        symbol = Symbol(name, ftype, SymbolKind.FUNCTION, is_global=True)
        self.symbols.define(symbol, allow_redeclare=True)
        self.func_symbols[name] = symbol
        return symbol

    def _declare_global(self, decl: c_ast.Decl) -> None:
        if decl.name is None:
            # A bare struct/union/enum definition.
            self.types.type_of(decl.type)
            return
        ctype = self.types.type_of(decl.type)
        if isinstance(ctype, FunctionType):
            self._declare_function_symbol(decl.name, ctype)
            return
        storage = set(decl.storage or ())
        existing = self.symbols.lookup(decl.name)
        if existing is not None and existing.kind is SymbolKind.VARIABLE \
                and existing.is_global:
            symbol = existing
            if isinstance(ctype, ArrayType) and ctype.length is not None:
                symbol.ctype = ctype  # complete a tentative array type
        else:
            symbol = Symbol(decl.name, ctype, SymbolKind.VARIABLE,
                            is_global=True,
                            storage="static" if "static" in storage
                            else "extern" if "extern" in storage else "")
            symbol = self.symbols.define(symbol, allow_redeclare=True)
        binding = self.bindings.get(symbol)
        if binding is None:
            loc = None
            if self.linkage is not None and symbol.storage != "static":
                # External linkage: one location per name program-wide.
                loc = self.linkage.global_locations.get(symbol.name)
                if loc is None:
                    loc = self.program.register_location(
                        global_location(symbol.name, ctype))
                    self.linkage.global_locations[symbol.name] = loc
            if loc is None:
                loc = self.program.register_location(
                    global_location(symbol.name, ctype))
            binding = MemoryBinding(symbol, loc)
            self.bindings[symbol] = binding
        if decl.init is not None:
            if self.linkage is not None and symbol.storage != "static":
                if symbol.name in self.linkage.initialized_globals:
                    raise TypeError_(
                        f"multiple initializations of global "
                        f"{symbol.name!r} across translation units",
                        line=_line(decl))
                self.linkage.initialized_globals.add(symbol.name)
            self._static_initializer(
                location_path(binding.location), symbol.ctype, decl.init)

    # -- static initializers -------------------------------------------------------

    def _static_initializer(self, path: AccessPath, ctype: CType,
                            init) -> None:
        """Record the points-to pairs a static initializer establishes."""
        ctype = self._resolved(ctype)
        if isinstance(init, c_ast.InitList):
            if isinstance(ctype, ArrayType):
                element_path = path.extend(INDEX)
                for expr in init.exprs:
                    if isinstance(expr, c_ast.NamedInitializer):
                        expr = expr.expr
                    self._static_initializer(element_path, ctype.element,
                                             expr)
                return
            if isinstance(ctype, RecordType):
                members = ctype.members
                index = 0
                for expr in init.exprs:
                    if isinstance(expr, c_ast.NamedInitializer):
                        member = expr.name[0].name
                        self._static_initializer(
                            path.extend(ctype.field_op(member)),
                            ctype.member_type(member), expr.expr)
                        index = next(
                            (i + 1 for i, (m, _) in enumerate(members)
                             if m == member), index)
                        continue
                    if index >= len(members):
                        raise TypeError_("too many initializers",
                                         line=_line(expr))
                    member, mtype = members[index]
                    self._static_initializer(
                        path.extend(ctype.field_op(member)), mtype, expr)
                    index += 1
                return
            if init.exprs:  # scalar in braces
                self._static_initializer(path, ctype, init.exprs[0])
            return

        target = decay(ctype)
        if isinstance(ctype, ArrayType):
            # char arr[] = "text": character data, no pointer pairs.
            if isinstance(init, c_ast.Constant) and init.type == "string":
                return
            raise TypeError_("array initializer must be a brace list "
                             "or string literal", line=_line(init))
        if not isinstance(target, PointerType):
            return  # arithmetic data establishes no points-to pairs
        referent = self._static_address(init)
        if referent is not None:
            self.program.seed_store([make_pair(path, referent)])

    def _static_address(self, expr) -> Optional[AccessPath]:
        """Evaluate an address constant; None means the null pointer or
        an arithmetic constant (no pair)."""
        if isinstance(expr, c_ast.Cast):
            return self._static_address(expr.expr)
        if isinstance(expr, c_ast.Constant):
            if expr.type == "string":
                return self._string_storage(expr.value)
            if int_literal(expr.value) == 0:
                return None
            raise UnsupportedFeatureError(
                "non-zero integer used as a static pointer initializer "
                "(pointer/non-pointer casts are not modeled, paper §2)",
                line=_line(expr))
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "&":
            return self._static_lvalue_path(expr.expr)
        if isinstance(expr, c_ast.ID):
            symbol = self.symbols.require(expr.name, _line(expr))
            if symbol.kind is SymbolKind.FUNCTION:
                return location_path(self._function_storage(symbol))
            if isinstance(self._resolved(symbol.ctype), ArrayType):
                path = self._global_path(symbol, expr)
                return path.extend(INDEX)
            raise UnsupportedFeatureError(
                f"cannot evaluate static initializer {expr.name!r}",
                line=_line(expr))
        raise UnsupportedFeatureError(
            f"unsupported static initializer {type(expr).__name__}",
            line=_line(expr))

    def _function_storage(self, symbol) -> BaseLocation:
        """The (unique) location naming a function's code.

        Static initializers are evaluated while declarations are still
        being collected, so a reference to a function defined further
        down the file must create the location eagerly —
        ``_declare_function_def`` finds and reuses it.
        """
        name = symbol.link_name or symbol.name
        loc = self.program.function_locations.get(name)
        if loc is None:
            loc = self.program.register_location(function_location(name))
            self.program.function_locations[name] = loc
        return loc

    def _static_lvalue_path(self, expr) -> AccessPath:
        if isinstance(expr, c_ast.ID):
            symbol = self.symbols.require(expr.name, _line(expr))
            if symbol.kind is SymbolKind.FUNCTION:
                return location_path(self._function_storage(symbol))
            return self._global_path(symbol, expr)
        if isinstance(expr, c_ast.StructRef) and expr.type == ".":
            base = self._static_lvalue_path(expr.name)
            record = self._record_of_path_target(base)
            return base.extend(record.field_op(expr.field.name))
        if isinstance(expr, c_ast.ArrayRef):
            base = self._static_lvalue_path(expr.name)
            return base.extend(INDEX)
        raise UnsupportedFeatureError(
            f"unsupported static address {type(expr).__name__}",
            line=_line(expr))

    def _record_of_path_target(self, path: AccessPath) -> RecordType:
        """The record type at the end of a statically built path."""
        ctype = self._resolved(path.base.ctype)
        for op in path.ops:
            ctype = self._resolved(ctype)
            if op.is_index:
                if not isinstance(ctype, ArrayType):
                    raise TypeError_(f"index into non-array along {path!r}")
                ctype = ctype.element
            else:
                if not isinstance(ctype, RecordType):
                    raise TypeError_(f"member of non-record along {path!r}")
                ctype = ctype.member_type(op.name)
        ctype = self._resolved(ctype)
        if not isinstance(ctype, RecordType):
            raise TypeError_(f"{path!r} does not name a record")
        return ctype

    def _global_path(self, symbol: Symbol, where) -> AccessPath:
        binding = self.bindings.get(symbol)
        if not isinstance(binding, MemoryBinding):
            raise LoweringError(
                f"global {symbol.name!r} has no storage", line=_line(where))
        return location_path(binding.location)

    def _resolved(self, ctype) -> CType:
        return ctype if ctype is not None else INT

    # -- shared helpers used by function lowering ---------------------------------------

    def _string_storage(self, literal: str) -> AccessPath:
        """A base-location for one string literal; the usable value is a
        pointer to its (char) elements."""
        label = f"<str{next(self._string_counter)}>"
        text = decode_string_literal(literal)
        loc = string_location(label)
        loc.ctype = ArrayType(CHAR, len(text) + 1)
        self.program.register_location(loc)
        return location_path(loc).extend(INDEX)

    def heap_site(self, call_node, function: str, callee: str) -> BaseLocation:
        """The per-call-site heap base-location (paper §2: one per
        static invocation site of memory-allocating library code)."""
        key = id(call_node)
        loc = self._heap_sites.get(key)
        if loc is None:
            line = _line(call_node)
            label = f"<heap:{callee}@{function}:{line or next(self._heap_counter)}>"
            loc = heap_location(label)
            self.program.register_location(loc)
            self._heap_sites[key] = loc
        return loc

    def warn(self, message: str, node=None) -> None:
        line = _line(node) if node is not None else None
        where = f" (line {line})" if line else ""
        full = f"{message}{where}"
        if self.extern_policy == "error":
            raise UnsupportedFeatureError(full)
        self.warnings.append(full)

    # -- roots and environment synthesis ---------------------------------------------------

    def _select_roots(self) -> None:
        if self.roots is None:
            self.roots = ["main"] if "main" in self.program.functions \
                else sorted(self.program.functions)[:1]
        for root in self.roots:
            self.program.add_root(root)

    def _synthesize_environments(self) -> None:
        """Give each root's pointer formals something to point at.

        ``main(int argc, char **argv)`` receives pointers into storage
        the program never allocates; we synthesize a chain of summary
        locations per pointer level (argv → argv[] → argv[][]) so the
        analysis sees the same shape the runtime provides.
        """
        for root in self.program.roots:
            graph = self.program.functions[root]
            funcdef = self.func_defs.get(root)
            if funcdef is None:
                continue
            symbol = self.func_symbols.get(root)
            if symbol is None:
                continue
            ftype = symbol.ctype
            if not isinstance(ftype, FunctionType):
                continue
            for index, ptype in enumerate(ftype.params):
                formal = graph.corresponding_formal(index)
                if formal is None or not isinstance(ptype, PointerType):
                    continue
                referent = self._environment_chain(root, index, ptype)
                self.program.seed_value(formal, direct(referent))

    def _environment_chain(self, root: str, index: int,
                           ptype: PointerType) -> AccessPath:
        """Build env locations for one pointer formal, seeding the
        initial store for each extra level of indirection."""
        level = 0
        current = ptype
        label = f"<env:{root}:arg{index}:l{level}>"
        loc = BaseLocation(LocationKind.GLOBAL, label, multi_instance=True,
                           ctype=ArrayType(current.pointee))
        self.program.register_location(loc)
        referent = location_path(loc).extend(INDEX)
        result = referent
        while isinstance(self._resolved(current.pointee), PointerType):
            current = self._resolved(current.pointee)
            level += 1
            label = f"<env:{root}:arg{index}:l{level}>"
            inner = BaseLocation(LocationKind.GLOBAL, label,
                                 multi_instance=True,
                                 ctype=ArrayType(current.pointee))
            self.program.register_location(inner)
            inner_ref = location_path(inner).extend(INDEX)
            self.program.seed_store([make_pair(referent, inner_ref)])
            referent = inner_ref
        return result


# ---------------------------------------------------------------------------
# Per-function lowering
# ---------------------------------------------------------------------------


class _LoopContext:
    __slots__ = ("breaks", "continues")

    def __init__(self) -> None:
        self.breaks: List[tuple] = []
        self.continues: List[tuple] = []


class _SwitchContext:
    __slots__ = ("entry", "breaks", "has_default")

    def __init__(self, entry: tuple) -> None:
        self.entry = entry
        self.breaks: List[tuple] = []
        self.has_default = False


class FunctionLowerer:
    """Lowers one function body."""

    def __init__(self, module: ModuleLowerer, name: str,
                 funcdef: c_ast.FuncDef) -> None:
        self.module = module
        self.name = name  # program name
        self.source_name = module.func_source_names.get(name, name)
        self.funcdef = funcdef
        self.types = module.types
        self.symbols = module.symbols
        self.program = module.program
        self.graph = module.program.functions[name]
        self.builder = GraphBuilder(self.graph)
        if module.hazard is not None:
            self.builder.null_path = \
                location_path(module.hazard["null"])
        self.graph.recursive = (
            self.source_name in module.prepass.recursive
            or name in module.linked_recursive)

        self.env: Dict[Symbol, OutputPort] = {}
        self.store: Optional[OutputPort] = None
        self.terminated = False
        self.returns: List[Tuple[Optional[OutputPort], OutputPort]] = []
        self.loop_stack: List[_LoopContext] = []
        self.switch_stack: List[_SwitchContext] = []
        #: Innermost break target (loops and switches interleaved).
        self.break_stack: List[Union[_LoopContext, _SwitchContext]] = []
        self._scope_symbols: List[List[Symbol]] = []
        self._addr_cache: Dict[int, OutputPort] = {}
        self.ftype: FunctionType = \
            module.func_symbols[self.source_name].ctype

    # -- driver --------------------------------------------------------------

    def run(self) -> None:
        if self.funcdef.param_decls:
            raise UnsupportedFeatureError(
                "K&R-style parameter declarations are not supported",
                line=_line(self.funcdef))
        self.symbols.push()
        self._scope_symbols.append([])
        try:
            self._prologue()
            if self.funcdef.body is not None:
                self.lower_statement(self.funcdef.body)
            self._epilogue()
        finally:
            self._pop_scope()
        self._count_source_lines()

    def _count_source_lines(self) -> None:
        body = self.funcdef.body
        start = _line(self.funcdef.decl)
        end = start
        if body is not None:

            class _Max(c_ast.NodeVisitor):
                value = start or 0

                def generic_visit(inner, node):  # noqa: N805
                    line = _line(node)
                    if line is not None and line > inner.value:
                        inner.value = line
                    for _, child in node.children():
                        inner.visit(child)

            scanner = _Max()
            scanner.visit(body)
            end = scanner.value
        if start is not None and end is not None:
            self.graph.source_lines = max(1, end - start + 1)

    # -- prologue / epilogue -----------------------------------------------------

    def _prologue(self) -> None:
        self.builder.set_origin(_origin(self.funcdef.decl))
        param_names = self._param_names()
        specs = []
        for pname, ptype in zip(param_names, self.ftype.params):
            tag = ptype.value_tag()
            specs.append((pname or f"arg{len(specs)}", tag,
                          ptype.contains_pointers()
                          if tag is ValueTag.AGGREGATE else None))
        entry = self.builder.entry(specs)
        self.store = entry.store_out
        for index, (pname, ptype) in enumerate(
                zip(param_names, self.ftype.params)):
            if pname is None:
                continue
            symbol = Symbol(pname, ptype, SymbolKind.VARIABLE)
            self.symbols.define(symbol)
            self._scope_symbols[-1].append(symbol)
            formal = entry.formals[index]
            if self._needs_memory(symbol):
                loc = param_location(
                    pname, self.name, recursive=self.graph.recursive,
                    ctype=ptype)
                self.program.register_location(loc)
                self.module.bindings[symbol] = MemoryBinding(symbol, loc)
                addr = self._location_addr(loc)
                self.store = self.builder.update(addr, self.store, formal)
            else:
                self.module.bindings[symbol] = RegisterBinding(symbol)
                self.env[symbol] = formal

    def _param_names(self) -> List[Optional[str]]:
        decl_type = self.funcdef.decl.type
        if isinstance(decl_type, c_ast.FuncDecl):
            return self.types.param_names(decl_type)
        return []

    def _epilogue(self) -> None:
        if not self.terminated:
            if self.ftype.return_type.is_void:
                self.returns.append((None, self.store))
            else:
                self.returns.append(
                    (self.builder.undef(self.ftype.return_type.value_tag()),
                     self.store))
        if not self.returns:
            # Every path ended in an infinite loop: return is unreachable
            # but the graph still needs its return node for structure.
            header = self.builder.loop_header(
                self.graph.store_formal, tag=ValueTag.STORE)
            self.returns.append(
                (None if self.ftype.return_type.is_void
                 else self.builder.undef(self.ftype.return_type.value_tag()),
                 header.out))
        values = [v for v, _ in self.returns if v is not None]
        stores = [s for _, s in self.returns]
        store = self.builder.merge(stores, tag=ValueTag.STORE)
        if self.ftype.return_type.is_void or not values:
            self.builder.ret(None, store)
        else:
            tag, carries = unify_tags(values)
            value = self.builder.merge(values, tag=tag,
                                       carries_pointers=carries)
            self.builder.ret(value, store)

    # -- storage decisions -----------------------------------------------------------

    def _needs_memory(self, symbol: Symbol) -> bool:
        if not self.module.sparse:
            return True  # dense (CFG-style) mode: everything in store
        ctype = symbol.ctype
        if isinstance(ctype, (ArrayType, RecordType)):
            return True
        if symbol.storage == "static":
            return True
        return self.module.prepass.is_address_taken(self.source_name,
                                                    symbol.name)

    def _location_addr(self, loc: BaseLocation) -> OutputPort:
        """One address node per base-location per function (sparse)."""
        port = self._addr_cache.get(id(loc))
        if port is None:
            port = self.builder.address(location_path(loc))
            self._addr_cache[id(loc)] = port
        return port

    # -- state snapshots / joins ---------------------------------------------------------

    def _snapshot(self) -> tuple:
        return (dict(self.env), self.store, self.terminated)

    def _restore(self, snap: tuple) -> None:
        env, store, terminated = snap
        self.env = dict(env)
        self.store = store
        self.terminated = terminated

    def _live_states(self, snaps: List[tuple]) -> List[tuple]:
        return [s for s in snaps if not s[2]]

    def _join(self, snaps: List[tuple],
              pred: Optional[OutputPort] = None) -> None:
        """Install the merge of the given control-flow states."""
        live = self._live_states(snaps)
        if not live:
            self.terminated = True
            return
        self.terminated = False
        base_env = live[0][0]
        merged_env: Dict[Symbol, OutputPort] = {}
        for symbol in base_env:
            ports = [env[symbol] for env, _, _ in live if symbol in env]
            if len(ports) != len(live):
                continue  # declared on one path only: out of scope now
            if all(p is ports[0] for p in ports):
                merged_env[symbol] = ports[0]
            else:
                merged_env[symbol] = self.builder.merge(ports, pred=pred)
                pred = None  # attach the predicate to one merge only
        stores = [store for _, store, _ in live]
        if all(s is stores[0] for s in stores):
            merged_store = stores[0]
        else:
            merged_store = self.builder.merge(stores, tag=ValueTag.STORE,
                                              pred=pred)
        self.env = merged_env
        self.store = merged_store

    # -- scopes ---------------------------------------------------------------------------

    def _push_scope(self) -> None:
        self.symbols.push()
        self._scope_symbols.append([])

    def _pop_scope(self) -> None:
        for symbol in self._scope_symbols.pop():
            self.env.pop(symbol, None)
        self.symbols.pop()

    # ======================================================================
    # statements
    # ======================================================================

    def lower_statement(self, node) -> None:
        # Case/default labels make dead code reachable again (a switch
        # jumps straight to them); everything else after a terminator
        # is skipped (the paper's dead-code removal).
        if self.terminated and not self._has_label(node):
            return
        self.builder.set_origin(_origin(node))
        if isinstance(node, c_ast.Compound):
            self._push_scope()
            try:
                for item in node.block_items or ():
                    if self.terminated and not self._has_label(item):
                        continue
                    self.lower_statement(item)
            finally:
                self._pop_scope()
        elif isinstance(node, c_ast.Decl):
            self._lower_local_decl(node)
        elif isinstance(node, c_ast.DeclList):
            for decl in node.decls:
                self._lower_local_decl(decl)
        elif isinstance(node, c_ast.Typedef):
            self.types.register_typedef(node)
        elif isinstance(node, c_ast.If):
            self._lower_if(node)
        elif isinstance(node, c_ast.While):
            self._lower_while(node)
        elif isinstance(node, c_ast.DoWhile):
            self._lower_dowhile(node)
        elif isinstance(node, c_ast.For):
            self._lower_for(node)
        elif isinstance(node, c_ast.Return):
            self._lower_return(node)
        elif isinstance(node, c_ast.Break):
            self._lower_break(node)
        elif isinstance(node, c_ast.Continue):
            self._lower_continue(node)
        elif isinstance(node, c_ast.Switch):
            self._lower_switch(node)
        elif isinstance(node, (c_ast.Case, c_ast.Default)):
            self._lower_case(node)
        elif isinstance(node, (c_ast.EmptyStatement, c_ast.Pragma)):
            pass
        elif isinstance(node, (c_ast.Goto, c_ast.Label)):
            raise UnsupportedFeatureError(
                "goto/labels are not supported by the structured VDG "
                "construction", line=_line(node))
        else:
            self.lower_expression(node)  # expression statement

    def _has_label(self, node) -> bool:
        """Case/default labels make statements reachable again even
        after a break/return; anything else stays dead."""
        return isinstance(node, (c_ast.Case, c_ast.Default))

    # -- declarations -------------------------------------------------------------

    def _lower_local_decl(self, decl: c_ast.Decl) -> None:
        if decl.name is None:
            self.types.type_of(decl.type)  # struct/union/enum definition
            return
        ctype = self.types.type_of(decl.type)
        if isinstance(ctype, FunctionType):
            self.module._declare_function_symbol(decl.name, ctype)
            return
        storage = set(decl.storage or ())
        symbol = Symbol(decl.name, ctype, SymbolKind.VARIABLE,
                        storage="static" if "static" in storage
                        else "extern" if "extern" in storage else "")
        self.symbols.define(symbol)
        self._scope_symbols[-1].append(symbol)

        if symbol.storage == "extern":
            loc = self.program.register_location(
                global_location(symbol.name, ctype))
            self.module.bindings[symbol] = MemoryBinding(symbol, loc)
            return
        if symbol.storage == "static":
            loc = BaseLocation(LocationKind.GLOBAL,
                               f"{self.name}.{symbol.name}",
                               ctype=ctype, procedure=self.name)
            self.program.register_location(loc)
            self.module.bindings[symbol] = MemoryBinding(symbol, loc)
            if decl.init is not None:
                self.module._static_initializer(
                    location_path(loc), ctype, decl.init)
            return
        if self._needs_memory(symbol):
            loc = local_location(symbol.name, self.name,
                                 recursive=self.graph.recursive, ctype=ctype)
            self.program.register_location(loc)
            self.module.bindings[symbol] = MemoryBinding(symbol, loc)
            if decl.init is not None:
                self._lower_initializer(
                    MemoryLValue(self._location_addr(loc), ctype), decl.init)
            elif self.module.hazard is not None:
                self._seed_uninit_cells(location_path(loc), ctype)
        else:
            self.module.bindings[symbol] = RegisterBinding(symbol)
            if decl.init is not None:
                value, vtype = self._rvalue(decl.init)
                self._check_pointer_assignment(ctype, vtype, decl.init)
                self.env[symbol] = self._coerce_value(value, ctype)
            else:
                # Every in-scope register variable keeps an environment
                # entry, so loop headers cover it even when the first
                # assignment happens inside the loop body.
                tag = ctype.value_tag()
                if self.module.hazard is not None \
                        and tag in (ValueTag.POINTER, ValueTag.FUNCTION):
                    # Hazard model: an uninitialized pointer-valued
                    # register variable points at <uninit> until the
                    # first assignment rebinds it.
                    self.env[symbol] = self.builder.address(
                        location_path(self.module.hazard["uninit"]), tag)
                else:
                    self.env[symbol] = self.builder.undef(tag)

    def _seed_uninit_cells(self, path: AccessPath, ctype: CType) -> None:
        """Hazard model: seed ``cell → <uninit>`` on the entry store for
        every pointer-valued leaf of an uninitialized local.

        The seed is unconditional per activation (each frame starts
        with undefined locals); a later strong update of the cell kills
        the marker, so only maybe-uninitialized reads still see it.
        """
        if isinstance(ctype, PointerType) or isinstance(ctype, FunctionType):
            uninit = location_path(self.module.hazard["uninit"])
            self.program.seed_value(self.graph.store_formal,
                                    make_pair(path, uninit))
            return
        if isinstance(ctype, ArrayType):
            self._seed_uninit_cells(path.extend(INDEX), ctype.element)
            return
        if isinstance(ctype, RecordType) and ctype.is_complete:
            for member, mtype in ctype.members:
                self._seed_uninit_cells(path.extend(ctype.field_op(member)),
                                        mtype)

    def _lower_initializer(self, lvalue: MemoryLValue, init) -> None:
        """Runtime initialization of a store-resident local."""
        ctype = lvalue.ctype
        if isinstance(init, c_ast.InitList):
            if isinstance(ctype, ArrayType):
                element_addr = self._index_addr(lvalue.addr)
                for expr in init.exprs:
                    if isinstance(expr, c_ast.NamedInitializer):
                        expr = expr.expr
                    self._lower_initializer(
                        MemoryLValue(element_addr, ctype.element), expr)
                return
            if isinstance(ctype, RecordType):
                members = ctype.members
                index = 0
                for expr in init.exprs:
                    if isinstance(expr, c_ast.NamedInitializer):
                        member = expr.name[0].name
                        mtype = ctype.member_type(member)
                        addr = self._field_addr(lvalue.addr,
                                                ctype.field_op(member))
                        self._lower_initializer(MemoryLValue(addr, mtype),
                                                expr.expr)
                        continue
                    if index >= len(members):
                        raise TypeError_("too many initializers",
                                         line=_line(expr))
                    member, mtype = members[index]
                    addr = self._field_addr(lvalue.addr,
                                            ctype.field_op(member))
                    self._lower_initializer(MemoryLValue(addr, mtype), expr)
                    index += 1
                return
            if init.exprs:
                self._lower_initializer(
                    MemoryLValue(lvalue.addr, ctype), init.exprs[0])
            return
        if isinstance(ctype, ArrayType):
            if isinstance(init, c_ast.Constant) and init.type == "string":
                # Character copy: a memory write with no pointer pairs.
                element_addr = self._index_addr(lvalue.addr)
                value = self.builder.const(decode_string_literal(init.value))
                self.store = self.builder.update(element_addr, self.store,
                                                 value)
                return
            raise TypeError_("array initializer must be a brace list or "
                             "string literal", line=_line(init))
        value, vtype = self._rvalue(init)
        self._check_pointer_assignment(ctype, vtype, init)
        self.store = self.builder.update(lvalue.addr, self.store, value)

    # -- control flow -----------------------------------------------------------------

    def _control(self, pred: OutputPort) -> OutputPort:
        """Register a value as steering control flow (a γ/μ predicate
        in VDG terms), anchoring its computation's liveness."""
        self.graph.add_control_use(pred)
        return pred

    def _lower_if(self, node: c_ast.If) -> None:
        pred, _ = self._rvalue(node.cond)
        self._control(pred)
        entry = self._snapshot()
        if node.iftrue is not None:
            self.lower_statement(node.iftrue)
        then_state = self._snapshot()
        self._restore(entry)
        if node.iffalse is not None:
            self.lower_statement(node.iffalse)
        else_state = self._snapshot()
        self._join([then_state, else_state], pred=pred)

    def _open_loop_headers(self) -> Dict[object, MergeNode]:
        headers: Dict[object, MergeNode] = {}
        for symbol, value in list(self.env.items()):
            header = self.builder.loop_header(value)
            headers[symbol] = header
            self.env[symbol] = header.out
        store_header = self.builder.loop_header(self.store,
                                                tag=ValueTag.STORE)
        headers["<store>"] = store_header
        self.store = store_header.out
        return headers

    def _close_loop_headers(self, headers: Dict[object, MergeNode],
                            back_states: List[tuple]) -> None:
        live = self._live_states(back_states)
        if not live:
            return  # back edge unreachable; headers stay trivial
        saved = self._snapshot()
        self._join(live)
        for key, header in headers.items():
            if key == "<store>":
                self.builder.close_loop(header, self.store)
            elif key in self.env:
                self.builder.close_loop(header, self.env[key])
        self._restore(saved)

    def _lower_while(self, node: c_ast.While) -> None:
        headers = self._open_loop_headers()
        if node.cond is not None:
            cond, _ = self._rvalue(node.cond)
            self._control(cond)
        cond_state = self._snapshot()
        context = _LoopContext()
        self.loop_stack.append(context)
        self.break_stack.append(context)
        try:
            if node.stmt is not None:
                self.lower_statement(node.stmt)
        finally:
            self.loop_stack.pop()
            self.break_stack.pop()
        back_states = [self._snapshot()] + context.continues
        self._close_loop_headers(headers, back_states)
        exits = [cond_state] + context.breaks
        if node.cond is None:
            exits = context.breaks  # no condition: only break exits
        self._join(exits)

    def _lower_dowhile(self, node: c_ast.DoWhile) -> None:
        headers = self._open_loop_headers()
        context = _LoopContext()
        self.loop_stack.append(context)
        self.break_stack.append(context)
        try:
            if node.stmt is not None:
                self.lower_statement(node.stmt)
        finally:
            self.loop_stack.pop()
            self.break_stack.pop()
        # continue jumps to the condition test.
        self._join([self._snapshot()] + context.continues)
        if not self.terminated and node.cond is not None:
            cond, _ = self._rvalue(node.cond)
            self._control(cond)
        cond_state = self._snapshot()
        self._close_loop_headers(headers, [cond_state])
        self._join([cond_state] + context.breaks)

    def _lower_for(self, node: c_ast.For) -> None:
        self._push_scope()
        try:
            if node.init is not None:
                self.lower_statement(node.init)
            headers = self._open_loop_headers()
            if node.cond is not None:
                cond, _ = self._rvalue(node.cond)
                self._control(cond)
            cond_state = self._snapshot()
            context = _LoopContext()
            self.loop_stack.append(context)
            self.break_stack.append(context)
            try:
                if node.stmt is not None:
                    self.lower_statement(node.stmt)
            finally:
                self.loop_stack.pop()
                self.break_stack.pop()
            # continue jumps to the step expression.
            self._join([self._snapshot()] + context.continues)
            if not self.terminated and node.next is not None:
                self.lower_expression(node.next)
            self._close_loop_headers(headers, [self._snapshot()])
            exits = [cond_state] + context.breaks
            if node.cond is None:
                exits = context.breaks
            self._join(exits)
        finally:
            self._pop_scope()

    def _lower_return(self, node: c_ast.Return) -> None:
        value = None
        if node.expr is not None:
            value, vtype = self._rvalue(node.expr)
            self._check_pointer_assignment(self.ftype.return_type, vtype,
                                           node.expr)
        elif not self.ftype.return_type.is_void:
            value = self.builder.undef(self.ftype.return_type.value_tag())
        self.returns.append((value, self.store))
        self.terminated = True

    def _lower_break(self, node: c_ast.Break) -> None:
        if not self.break_stack:
            raise LoweringError("break outside loop or switch",
                                line=_line(node))
        self.break_stack[-1].breaks.append(self._snapshot())
        self.terminated = True

    def _lower_continue(self, node: c_ast.Continue) -> None:
        if not self.loop_stack:
            raise LoweringError("continue outside loop", line=_line(node))
        self.loop_stack[-1].continues.append(self._snapshot())
        self.terminated = True

    def _lower_switch(self, node: c_ast.Switch) -> None:
        scrutinee, _ = self._rvalue(node.cond)
        self._control(scrutinee)
        context = _SwitchContext(self._snapshot())
        self.switch_stack.append(context)
        self.break_stack.append(context)
        self.terminated = True  # nothing runs before the first label
        try:
            body = node.stmt
            if isinstance(body, c_ast.Compound):
                # Iterate directly: the body itself is "dead" until a
                # case label resurrects reachability.
                self._push_scope()
                try:
                    for item in body.block_items or ():
                        self.lower_statement(item)
                finally:
                    self._pop_scope()
            elif body is not None:
                self.lower_statement(body)
        finally:
            self.switch_stack.pop()
            self.break_stack.pop()
        final = self._snapshot()
        exits = context.breaks + [final]
        if not context.has_default:
            exits.append(context.entry)
        self._join(exits)

    def _lower_case(self, node) -> None:
        if not self.switch_stack:
            raise LoweringError("case label outside switch", line=_line(node))
        context = self.switch_stack[-1]
        if isinstance(node, c_ast.Default):
            context.has_default = True
        else:
            self.types.const_eval(node.expr)  # validate the label
        fallthrough = self._snapshot()
        self._join([context.entry, fallthrough])
        for stmt in node.stmts or ():
            self.lower_statement(stmt)

    # ======================================================================
    # expressions
    # ======================================================================

    def lower_expression(self, node) -> Tuple[OutputPort, CType]:
        return self._rvalue(node)

    # -- l-values -----------------------------------------------------------------

    def _lvalue(self, node) -> LValue:
        if isinstance(node, c_ast.ID):
            symbol = self.symbols.require(node.name, _line(node))
            if symbol.kind is not SymbolKind.VARIABLE:
                raise TypeError_(f"{node.name!r} is not assignable",
                                 line=_line(node))
            binding = self.module.bindings.get(symbol)
            if isinstance(binding, MemoryBinding):
                return MemoryLValue(self._location_addr(binding.location),
                                    symbol.ctype)
            if isinstance(binding, RegisterBinding):
                return RegisterLValue(symbol)
            raise LoweringError(f"{node.name!r} has no binding",
                                line=_line(node))
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            value, vtype = self._rvalue(node.expr)
            vtype = decay(vtype)
            if not isinstance(vtype, PointerType):
                raise TypeError_("dereference of non-pointer",
                                 line=_line(node))
            return MemoryLValue(value, vtype.pointee)
        if isinstance(node, c_ast.ArrayRef):
            return self._array_lvalue(node)
        if isinstance(node, c_ast.StructRef):
            return self._member_lvalue(node)
        if isinstance(node, c_ast.Cast):
            inner = self._lvalue(node.expr)
            inner.ctype = self.types.type_of(node.to_type)
            return inner
        raise TypeError_(f"not an l-value: {type(node).__name__}",
                         line=_line(node))

    def _array_lvalue(self, node: c_ast.ArrayRef) -> MemoryLValue:
        base, index = node.name, node.subscript
        base_hint = self._expression_type_hint(base)
        index_hint = self._expression_type_hint(index)
        base_is_ptr = base_hint is not None and isinstance(
            decay(base_hint), PointerType)
        index_is_ptr = index_hint is not None and isinstance(
            decay(index_hint), PointerType)
        if not base_is_ptr and index_is_ptr:
            base, index = index, base  # the i[arr] spelling
        element_addr, element_type = self._element_address(base, index)
        return MemoryLValue(element_addr, element_type)

    def _element_address(self, base, index) -> Tuple[OutputPort, CType]:
        base_type = self._expression_type_hint(base)
        if isinstance(base_type, ArrayType):
            lvalue = self._lvalue(base)
            if not isinstance(lvalue, MemoryLValue):
                raise LoweringError("array value not in memory",
                                    line=_line(base))
            element_addr = self._index_addr(lvalue.addr)
            index_value, _ = self._rvalue(index)
            element_addr = self._ptradd(element_addr, index_value)
            return element_addr, base_type.element
        value, vtype = self._rvalue(base)
        vtype = decay(vtype)
        if not isinstance(vtype, PointerType):
            raise TypeError_("subscript of non-pointer", line=_line(base))
        index_value, _ = self._rvalue(index)
        return self._ptradd(value, index_value), vtype.pointee

    def _member_lvalue(self, node: c_ast.StructRef) -> MemoryLValue:
        field = node.field.name
        if node.type == "->":
            value, vtype = self._rvalue(node.name)
            vtype = decay(vtype)
            if not isinstance(vtype, PointerType) or not isinstance(
                    self._strip(vtype.pointee), RecordType):
                raise TypeError_("-> applied to non-record-pointer",
                                 line=_line(node))
            record = self._strip(vtype.pointee)
            addr = self._field_addr(value, record.field_op(field))
            return MemoryLValue(addr, record.member_type(field))
        lvalue = self._lvalue(node.name)
        record = self._strip(lvalue.ctype)
        if not isinstance(record, RecordType):
            raise TypeError_(". applied to non-record", line=_line(node))
        if not isinstance(lvalue, MemoryLValue):
            raise LoweringError("record value not in memory",
                                line=_line(node))
        addr = self._field_addr(lvalue.addr, record.field_op(field))
        return MemoryLValue(addr, record.member_type(field))

    def _strip(self, ctype: CType) -> CType:
        return ctype

    # -- address-arithmetic helpers with constant folding ----------------------------

    def _field_addr(self, ptr: OutputPort, field_op) -> OutputPort:
        if isinstance(ptr.node, AddressNode):
            return self.builder.address(ptr.node.path.extend(field_op))
        return self.builder.field_addr(ptr, field_op)

    def _index_addr(self, ptr: OutputPort) -> OutputPort:
        if isinstance(ptr.node, AddressNode):
            return self.builder.address(ptr.node.path.extend(INDEX))
        return self.builder.index_addr(ptr)

    def _ptradd(self, ptr: OutputPort, offset: OutputPort) -> OutputPort:
        # Arithmetic on a constant address stays within the (summary)
        # array: the address itself is unchanged.
        if isinstance(ptr.node, AddressNode):
            return ptr
        return self.builder.ptradd(ptr, offset)

    # -- reads and writes --------------------------------------------------------------

    def _read(self, lvalue: LValue, where=None) -> Tuple[OutputPort, CType]:
        if isinstance(lvalue, RegisterLValue):
            port = self.env.get(lvalue.symbol)
            if port is None:
                port = self.builder.undef(lvalue.ctype.value_tag())
                self.env[lvalue.symbol] = port
            return port, lvalue.ctype
        assert isinstance(lvalue, MemoryLValue)
        ctype = lvalue.ctype
        if isinstance(ctype, ArrayType):
            return self._index_addr(lvalue.addr), ctype.decayed()
        if isinstance(ctype, FunctionType):
            return lvalue.addr, pointer_to(ctype)
        tag = ctype.value_tag()
        port = self.builder.lookup(
            lvalue.addr, self.store, tag,
            ctype.contains_pointers() if tag is ValueTag.AGGREGATE else None)
        return port, ctype

    def _coerce_value(self, value: OutputPort, target: CType) -> OutputPort:
        """Retag a null constant flowing into a pointer variable so the
        SSA environment (and any loop-header merges seeded from it)
        carries the pointer tag.  Reaching here with a scalar-tagged
        value implies a null constant: _check_pointer_assignment has
        already rejected every other arithmetic-to-pointer flow."""
        target = decay(target)
        if isinstance(target, PointerType) and \
                value.tag is ValueTag.SCALAR:
            tag = target.value_tag()
            if self.builder.null_path is not None:
                return self.builder.address(self.builder.null_path, tag)
            return self.builder.const(0, tag)
        return value

    def _write(self, lvalue: LValue, value: OutputPort, vtype: CType,
               where=None) -> None:
        self._check_pointer_assignment(lvalue.ctype, vtype, where)
        if isinstance(lvalue, RegisterLValue):
            self.env[lvalue.symbol] = self._coerce_value(value,
                                                         lvalue.ctype)
            return
        assert isinstance(lvalue, MemoryLValue)
        if self.builder.null_path is not None:
            # Hazard model: a null constant written to memory must carry
            # the <null> pair, or the cell looks merely empty.
            value = self._coerce_value(value, lvalue.ctype)
        self.store = self.builder.update(lvalue.addr, self.store, value)

    def _check_pointer_assignment(self, target: CType, source: CType,
                                  expr) -> None:
        """Reject arithmetic-to-pointer flows other than null constants
        (the paper does not model pointer/non-pointer casts)."""
        target = decay(target)
        if not isinstance(target, PointerType):
            return
        source = decay(source)
        if isinstance(source, (PointerType, FunctionType)):
            return
        if expr is not None and _is_null_constant(expr, self.types):
            return
        if isinstance(source, VoidType):
            return
        raise UnsupportedFeatureError(
            "assignment of a non-pointer value to a pointer (casts "
            "between pointer and non-pointer types are not modeled, "
            "paper §2)", line=_line(expr) if expr is not None else None)

    # -- r-values ----------------------------------------------------------------------

    def _rvalue(self, node) -> Tuple[OutputPort, CType]:
        self.builder.set_origin(_origin(node))
        if isinstance(node, c_ast.Constant):
            return self._lower_constant(node)
        if isinstance(node, c_ast.ID):
            return self._lower_id(node)
        if isinstance(node, c_ast.UnaryOp):
            return self._lower_unary(node)
        if isinstance(node, c_ast.BinaryOp):
            return self._lower_binary(node)
        if isinstance(node, c_ast.Assignment):
            return self._lower_assignment(node)
        if isinstance(node, c_ast.TernaryOp):
            return self._lower_ternary(node)
        if isinstance(node, c_ast.FuncCall):
            return self._lower_call(node)
        if isinstance(node, c_ast.Cast):
            return self._lower_cast(node)
        if isinstance(node, (c_ast.ArrayRef, c_ast.StructRef)):
            return self._lower_access_rvalue(node)
        if isinstance(node, c_ast.ExprList):
            result: Optional[Tuple[OutputPort, CType]] = None
            for expr in node.exprs:
                result = self._rvalue(expr)
            if result is None:
                raise LoweringError("empty expression list",
                                    line=_line(node))
            return result
        if isinstance(node, c_ast.InitList):
            raise UnsupportedFeatureError(
                "compound literals are not supported", line=_line(node))
        raise UnsupportedFeatureError(
            f"unsupported expression {type(node).__name__}",
            line=_line(node))

    def _lower_access_rvalue(self, node) -> Tuple[OutputPort, CType]:
        if isinstance(node, c_ast.StructRef) and node.type == ".":
            # f().member: the base may be an aggregate value with no
            # storage; read through EXTRACT instead of memory.
            base_hint = self._expression_type_hint(node.name)
            if isinstance(base_hint, RecordType) and \
                    not self._is_lvalue_expression(node.name):
                base, btype = self._rvalue(node.name)
                record = self._strip(btype)
                mtype = record.member_type(node.field.name)
                port = self.builder.extract(
                    base, record.field_op(node.field.name),
                    mtype.value_tag(),
                    mtype.contains_pointers()
                    if mtype.value_tag() is ValueTag.AGGREGATE else None)
                return port, mtype
        lvalue = self._lvalue(node)
        return self._read(lvalue, node)

    def _is_lvalue_expression(self, node) -> bool:
        return isinstance(node, (c_ast.ID, c_ast.ArrayRef, c_ast.StructRef)) \
            or (isinstance(node, c_ast.UnaryOp) and node.op == "*")

    def _lower_constant(self, node: c_ast.Constant) -> Tuple[OutputPort, CType]:
        if node.type == "string":
            referent = self.module._string_storage(node.value)
            return self.builder.address(referent), PointerType(CHAR)
        if node.type == "char":
            return self.builder.const(_char_value(node.value)), CHAR
        if node.type in ("float", "double", "long double"):
            return (self.builder.const(float(node.value.rstrip("fFlL"))),
                    FloatType("double"))
        return self.builder.const(int_literal(node.value)), INT

    def _lower_id(self, node: c_ast.ID) -> Tuple[OutputPort, CType]:
        symbol = self.symbols.lookup(node.name)
        if symbol is None:
            if node.name in self.types.enum_constants:
                value = self.types.enum_constants[node.name]
                return self.builder.const(value), INT
            raise TypeError_(f"undeclared identifier {node.name!r}",
                             line=_line(node))
        if symbol.kind is SymbolKind.ENUM_CONSTANT:
            return self.builder.const(symbol.value or 0), INT
        if symbol.kind is SymbolKind.FUNCTION:
            return self._function_value(symbol, node)
        return self._read(self._lvalue(node), node)

    def _function_value(self, symbol: Symbol,
                        node) -> Tuple[OutputPort, CType]:
        link_name = symbol.link_name or symbol.name
        loc = self.program.function_locations.get(link_name)
        if loc is None:
            # Taking the address of an undefined external function.
            self.module.warn(
                f"address of external function {symbol.name!r} taken; "
                f"calls through it resolve to nothing", node)
            loc = function_location(symbol.name)
            self.program.register_location(loc)
            self.program.function_locations[symbol.name] = loc
        port = self.builder.address(location_path(loc), ValueTag.FUNCTION)
        return port, pointer_to(symbol.ctype)

    # -- unary ------------------------------------------------------------------------------

    def _lower_unary(self, node: c_ast.UnaryOp) -> Tuple[OutputPort, CType]:
        op = node.op
        if op == "&":
            return self._lower_address_of(node)
        if op == "*":
            return self._read(self._lvalue(node), node)
        if op == "sizeof":
            if isinstance(node.expr, c_ast.Typename):
                size = self.types.type_of(node.expr).size_of()
            else:
                hint = self._expression_type_hint(node.expr)
                size = hint.size_of() if hint is not None else 8
            return self.builder.const(size), IntType("long", signed=False)
        if op in ("++", "--", "p++", "p--"):
            return self._lower_incdec(node)
        value, vtype = self._rvalue(node.expr)
        if op in ("-", "+", "~"):
            return (self.builder.primop(f"unary{op}", [value]),
                    vtype if vtype.is_scalar_arith else INT)
        if op == "!":
            return self.builder.primop("not", [value]), INT
        raise UnsupportedFeatureError(f"unsupported unary operator {op!r}",
                                      line=_line(node))

    def _lower_address_of(self, node: c_ast.UnaryOp) -> Tuple[OutputPort, CType]:
        target = node.expr
        # &*e is just e; &f is the function value.
        if isinstance(target, c_ast.UnaryOp) and target.op == "*":
            value, vtype = self._rvalue(target.expr)
            return value, decay(vtype)
        if isinstance(target, c_ast.ID):
            symbol = self.symbols.lookup(target.name)
            if symbol is not None and symbol.kind is SymbolKind.FUNCTION:
                return self._function_value(symbol, node)
        lvalue = self._lvalue(target)
        if not isinstance(lvalue, MemoryLValue):
            raise LoweringError(
                f"address taken of register variable "
                f"{getattr(lvalue, 'symbol', '?')!r} (pre-pass missed it)",
                line=_line(node))
        return lvalue.addr, pointer_to(lvalue.ctype)

    def _lower_incdec(self, node: c_ast.UnaryOp) -> Tuple[OutputPort, CType]:
        lvalue = self._lvalue(node.expr)
        old, vtype = self._read(lvalue, node.expr)
        one = self.builder.const(1)
        if isinstance(decay(vtype), PointerType):
            new = self._ptradd(old, one)
            new_type = decay(vtype)
        else:
            op = "add" if node.op in ("++", "p++") else "sub"
            new = self.builder.primop(op, [old, one])
            new_type = vtype
        self._write(lvalue, new, new_type, None)
        if node.op in ("p++", "p--"):
            return old, decay(vtype)
        return new, new_type

    # -- binary -----------------------------------------------------------------------------

    def _lower_binary(self, node: c_ast.BinaryOp) -> Tuple[OutputPort, CType]:
        op = node.op
        if op in ("&&", "||"):
            return self._lower_short_circuit(node)
        left, ltype = self._rvalue(node.left)
        right, rtype = self._rvalue(node.right)
        left_ptr = isinstance(decay(ltype), PointerType)
        right_ptr = isinstance(decay(rtype), PointerType)
        if op == "+" and (left_ptr or right_ptr):
            if left_ptr and right_ptr:
                raise TypeError_("pointer + pointer", line=_line(node))
            ptr, offset = (left, right) if left_ptr else (right, left)
            ptype = decay(ltype) if left_ptr else decay(rtype)
            return self._ptradd(ptr, offset), ptype
        if op == "-" and left_ptr:
            if right_ptr:
                return (self.builder.primop("ptrdiff", [left, right]),
                        IntType("long"))
            return self._ptradd(left, right), decay(ltype)
        tag_type = ltype if ltype.is_scalar_arith else INT
        if op in ("<", ">", "<=", ">=", "==", "!=",):
            return self.builder.primop(f"cmp{op}", [left, right]), INT
        name = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
                "<<": "shl", ">>": "shr", "&": "and", "|": "or",
                "^": "xor"}.get(op)
        if name is None:
            raise UnsupportedFeatureError(
                f"unsupported binary operator {op!r}", line=_line(node))
        return self.builder.primop(name, [left, right]), tag_type

    def _lower_short_circuit(self, node: c_ast.BinaryOp
                             ) -> Tuple[OutputPort, CType]:
        left, _ = self._rvalue(node.left)
        self._control(left)
        before_right = self._snapshot()
        right, _ = self._rvalue(node.right)
        after_right = self._snapshot()
        # The right operand may or may not execute: join the two states.
        self._join([before_right, after_right], pred=left)
        op = "logand" if node.op == "&&" else "logor"
        return self.builder.primop(op, [left, right]), INT

    # -- assignment --------------------------------------------------------------------------

    def _lower_assignment(self, node: c_ast.Assignment
                          ) -> Tuple[OutputPort, CType]:
        lvalue = self._lvalue(node.lvalue)
        if node.op == "=":
            value, vtype = self._rvalue(node.rvalue)
            self._write(lvalue, value, vtype, node.rvalue)
            return value, lvalue.ctype
        op = node.op[:-1]
        old, old_type = self._read(lvalue, node.lvalue)
        rhs, rhs_type = self._rvalue(node.rvalue)
        if isinstance(decay(old_type), PointerType) and op in ("+", "-"):
            new = self._ptradd(old, rhs)
            new_type = decay(old_type)
        else:
            name = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                    "%": "mod", "<<": "shl", ">>": "shr", "&": "and",
                    "|": "or", "^": "xor"}.get(op)
            if name is None:
                raise UnsupportedFeatureError(
                    f"unsupported compound assignment {node.op!r}",
                    line=_line(node))
            new = self.builder.primop(name, [old, rhs])
            new_type = old_type if old_type.is_scalar_arith else INT
        self._write(lvalue, new, new_type, None)
        return new, lvalue.ctype

    # -- ?: -----------------------------------------------------------------------------------

    def _lower_ternary(self, node: c_ast.TernaryOp) -> Tuple[OutputPort, CType]:
        pred, _ = self._rvalue(node.cond)
        self._control(pred)
        entry = self._snapshot()
        then_value, then_type = self._rvalue(node.iftrue)
        then_state = self._snapshot()
        self._restore(entry)
        else_value, else_type = self._rvalue(node.iffalse)
        else_state = self._snapshot()
        self._join([then_state, else_state])
        if then_value is else_value:
            value = then_value
        else:
            value = self.builder.merge([then_value, else_value], pred=pred)
        result_type = then_type if not then_type.is_scalar_arith or \
            else_type.is_scalar_arith else else_type
        if isinstance(decay(else_type), PointerType):
            result_type = else_type
        if isinstance(decay(then_type), PointerType):
            result_type = then_type
        return value, decay(result_type)

    # -- casts ----------------------------------------------------------------------------------

    def _lower_cast(self, node: c_ast.Cast) -> Tuple[OutputPort, CType]:
        to_type = self.types.type_of(node.to_type)
        if isinstance(to_type, VoidType):
            self._rvalue(node.expr)
            return self.builder.undef(), VOID
        if isinstance(to_type, PointerType):
            if _is_null_constant(node.expr, self.types):
                return self.builder.null_pointer(), to_type
            value, vtype = self._rvalue(node.expr)
            vtype = decay(vtype)
            if isinstance(vtype, (PointerType, FunctionType)):
                return value, to_type  # pointer-to-pointer: retype only
            raise UnsupportedFeatureError(
                "cast of a non-pointer value to a pointer type is not "
                "modeled (paper §2)", line=_line(node))
        value, vtype = self._rvalue(node.expr)
        vtype = decay(vtype)
        if isinstance(vtype, (PointerType, FunctionType)):
            raise UnsupportedFeatureError(
                "cast of a pointer value to a non-pointer type is not "
                "modeled (paper §2)", line=_line(node))
        return value, to_type

    # -- calls -------------------------------------------------------------------------------------

    def _lower_call(self, node: c_ast.FuncCall) -> Tuple[OutputPort, CType]:
        callee = node.name
        if isinstance(callee, c_ast.ID):
            symbol = self.symbols.lookup(callee.name)
            if (symbol is not None
                    and symbol.kind is SymbolKind.FUNCTION
                    and not symbol.defined
                    and self.module.linkage is not None
                    and callee.name
                    in self.module.linkage.defined_functions):
                # Defined in another translation unit of this build.
                symbol.defined = True
                symbol.link_name = callee.name
            if symbol is None or (symbol.kind is SymbolKind.FUNCTION
                                  and not symbol.defined):
                model = model_for(callee.name)
                if model is not None:
                    return self._lower_library_call(node, model)
                if symbol is None:
                    self.module.warn(
                        f"call to undeclared function {callee.name!r} "
                        f"treated as store-identity", node)
                    return self._lower_unknown_extern(node, INT)
                self.module.warn(
                    f"call to unmodeled external function "
                    f"{callee.name!r} treated as store-identity", node)
                return self._lower_unknown_extern(
                    node, symbol.ctype.return_type
                    if isinstance(symbol.ctype, FunctionType) else INT)
            if symbol.kind is SymbolKind.FUNCTION:
                fcn, ftype_ptr = self._function_value(symbol, node)
                return self._emit_call(node, fcn, symbol.ctype)
            # A variable of function-pointer type.
            value, vtype = self._read(self._lvalue(callee), callee)
            return self._call_through_value(node, value, vtype)
        # (*fp)(...) or any computed callee.
        value, vtype = self._rvalue(callee)
        return self._call_through_value(node, value, vtype)

    def _call_through_value(self, node, value: OutputPort,
                            vtype: CType) -> Tuple[OutputPort, CType]:
        vtype = decay(vtype)
        ftype: Optional[FunctionType] = None
        if isinstance(vtype, PointerType) and isinstance(
                vtype.pointee, FunctionType):
            ftype = vtype.pointee
        elif isinstance(vtype, FunctionType):
            ftype = vtype
        if ftype is None:
            raise TypeError_("call through a non-function value",
                             line=_line(node))
        return self._emit_call(node, value, ftype)

    def _emit_call(self, node, fcn: OutputPort,
                   ftype: FunctionType) -> Tuple[OutputPort, CType]:
        args = self._lower_arguments(node)
        return_type = ftype.return_type
        tag = return_type.value_tag()
        carries = return_type.contains_pointers() \
            if tag is ValueTag.AGGREGATE else None
        result, self.store = self.builder.call(
            fcn, args, self.store, tag, carries)
        return result, return_type

    def _lower_arguments(self, node: c_ast.FuncCall) -> List[OutputPort]:
        args: List[OutputPort] = []
        if node.args is not None:
            for expr in node.args.exprs:
                value, _ = self._rvalue(expr)
                args.append(value)
        return args

    def _lower_library_call(self, node: c_ast.FuncCall,
                            model: LibModel) -> Tuple[OutputPort, CType]:
        if model.kind == "unsupported":
            raise UnsupportedFeatureError(
                f"call to {model.name!r}: {model.reason}", line=_line(node))
        args: List[Tuple[OutputPort, CType]] = []
        if node.args is not None:
            for expr in node.args.exprs:
                args.append(self._rvalue(expr))
        # The call is the identity function on the store (§5.1.2) but
        # genuinely consumes its arguments: thread the store through an
        # explicit node so argument evaluation stays live in the VDG.
        self.store = self.builder.library_store(
            model.name, [port for port, _ in args], self.store)
        if model.kind == "alloc":
            loc = self.module.heap_site(node, self.name, model.name)
            port = self.builder.address(location_path(loc))
            return port, PointerType(VOID)
        if model.kind == "returns_arg":
            if model.arg_index < len(args):
                value, vtype = args[model.arg_index]
                return self.builder.copy(
                    value, op=f"lib:{model.name}:ret"), decay(vtype)
            return self.builder.null_pointer(), PointerType(VOID)
        # opaque: pointer-free scalar result.
        return self.builder.const(0, ValueTag.SCALAR), INT

    def _lower_unknown_extern(self, node: c_ast.FuncCall,
                              return_type: CType) -> Tuple[OutputPort, CType]:
        arg_ports: List[OutputPort] = []
        if node.args is not None:
            for expr in node.args.exprs:
                port, _ = self._rvalue(expr)
                arg_ports.append(port)
        name = node.name.name if isinstance(node.name, c_ast.ID) \
            else "<extern>"
        self.store = self.builder.library_store(name, arg_ports, self.store)
        tag = return_type.value_tag()
        if tag in (ValueTag.POINTER, ValueTag.FUNCTION, ValueTag.AGGREGATE):
            # An unknown extern returning pointers would be unsound to
            # fabricate; the result points at nothing (recorded above as
            # a warning).
            return self.builder.null_pointer(), return_type
        return self.builder.const(0), return_type

    # -- typing hints -------------------------------------------------------------------------------

    def _expression_type_hint(self, node) -> Optional[CType]:
        """Best-effort type of an expression *without* lowering it (used
        to steer array-vs-pointer and value-vs-storage decisions)."""
        if isinstance(node, c_ast.ID):
            symbol = self.symbols.lookup(node.name)
            return symbol.ctype if symbol is not None else None
        if isinstance(node, c_ast.ArrayRef):
            base = self._expression_type_hint(node.name)
            base = decay(base) if base is not None else None
            if isinstance(base, PointerType):
                return base.pointee
            return None
        if isinstance(node, c_ast.StructRef):
            if node.type == "->":
                base = self._expression_type_hint(node.name)
                base = decay(base) if base is not None else None
                if isinstance(base, PointerType) and isinstance(
                        base.pointee, RecordType):
                    return base.pointee.member_type(node.field.name)
                return None
            base = self._expression_type_hint(node.name)
            if isinstance(base, RecordType):
                return base.member_type(node.field.name)
            return None
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "*":
                base = self._expression_type_hint(node.expr)
                base = decay(base) if base is not None else None
                if isinstance(base, PointerType):
                    return base.pointee
                return None
            if node.op == "&":
                inner = self._expression_type_hint(node.expr)
                return pointer_to(inner) if inner is not None else None
            return None
        if isinstance(node, c_ast.FuncCall):
            if isinstance(node.name, c_ast.ID):
                symbol = self.symbols.lookup(node.name.name)
                if symbol is not None and isinstance(symbol.ctype,
                                                     FunctionType):
                    return symbol.ctype.return_type
            return None
        if isinstance(node, c_ast.Cast):
            return self.types.type_of(node.to_type)
        if isinstance(node, c_ast.Constant):
            if node.type == "string":
                return PointerType(CHAR)
            return INT
        return None


def _is_null_constant(expr, types: TypeContext) -> bool:
    """Whether an expression is a null pointer constant (0, '\\0',
    (void*)0, an enum constant equal to 0, ...)."""
    try:
        return types.const_eval(expr) == 0
    except TypeError_:
        return False


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def lower_ast(ast: c_ast.FileAST, name: str = "<program>",
              **options) -> Program:
    """Lower a parsed translation unit to an analyzable program."""
    with _recursion_guard(name):
        program = ModuleLowerer(ast, name, **options).run()
    program.source_lines = 0
    return program


@contextmanager
def _recursion_guard(filename: str):
    """Report a recursion-limit overflow while lowering (a construct
    nested too deep to walk) as a :class:`LoweringError` naming the
    file, not a bare ``RecursionError``."""
    try:
        yield
    except RecursionError:
        raise LoweringError("nesting too deep to lower (recursion limit "
                            "exceeded)", filename) from None


def lower_units(units: Sequence[Tuple[Path, str]], name: str, timer,
                **options) -> Program:
    """Parse and lower preprocessed translation units, given as
    ``(path, preprocessed text)``, into one linked program — the
    cache-miss half of :func:`repro.frontend.pipeline.lower_files`.
    ``timer`` (a :class:`~repro.perf.PhaseTimer`) accumulates the
    ``parse`` and ``lower`` phases."""
    program = Program(name)
    linkage = Linkage(program)

    lowerers: List[ModuleLowerer] = []
    for path, processed in units:
        with timer.phase("parse"):
            ast = parse_preprocessed(processed, str(path))
        with timer.phase("lower"), _recursion_guard(str(path)):
            lowerer = ModuleLowerer(ast, name, linkage=linkage,
                                    tu_name=path.stem, **options)
            lowerer.collect()
        lowerers.append(lowerer)

    with timer.phase("lower"), _recursion_guard(name):
        _link_recursion(lowerers, linkage)
        for lowerer in lowerers:
            lowerer.lower_bodies()

        finisher = next(
            (lw for lw in lowerers
             if "main" in lw.func_source_names.values()), lowerers[0])
        for lowerer in lowerers:
            if lowerer is not finisher:
                finisher.warnings.extend(lowerer.warnings)
        finisher.finish()
    return program


def _link_recursion(lowerers: List["ModuleLowerer"],
                    linkage: Linkage) -> None:
    """Recompute recursion over the merged (cross-TU) call graph."""
    from .prepasses import _tarjan_sccs

    # Map each TU's source-name call edges onto program names.
    graph: Dict[str, set] = {}
    address_taken: set = set()
    indirect_callers: set = set()

    def resolve(lowerer: "ModuleLowerer", callee: str) -> Optional[str]:
        for prog_name, src in lowerer.func_source_names.items():
            if src == callee:
                return prog_name  # TU-local definition (maybe static)
        if callee in linkage.defined_functions:
            return callee
        return None

    for lowerer in lowerers:
        for prog_name, src in lowerer.func_source_names.items():
            edges = graph.setdefault(prog_name, set())
            for callee in lowerer.prepass.direct_calls.get(src, ()):
                target = resolve(lowerer, callee)
                if target is not None:
                    edges.add(target)
            if src in lowerer.prepass.has_indirect_call:
                indirect_callers.add(prog_name)
        for fn in lowerer.prepass.address_taken_functions:
            target = resolve(lowerer, fn)
            if target is not None:
                address_taken.add(target)

    if address_taken:
        for caller in indirect_callers:
            graph.setdefault(caller, set()).update(address_taken)

    recursive: set = set()
    for scc in _tarjan_sccs(graph):
        if len(scc) > 1:
            recursive.update(scc)
        elif scc[0] in graph.get(scc[0], set()):
            recursive.add(scc[0])
    for lowerer in lowerers:
        lowerer.linked_recursive = recursive
