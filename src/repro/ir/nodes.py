"""VDG node vocabulary.

The paper analyzes C programs represented as value dependence graphs
(Weise et al., POPL 1994): computation is expressed by nodes that
consume input values and produce output values, with memory accesses
uniformly represented as ``lookup`` and ``update`` operations that
consume (and, for update, produce) explicit *store* values.

We implement the node kinds the paper's transfer functions dispatch on
(Figure 1): ``lookup``, ``update``, ``call``, ``return``, ``if`` (our
``merge``), and ``primop`` — plus the producers that seed points-to
facts: ``const``, ``address`` (base-location producer, covering
``&x``, string literals, malloc sites, and function references), and
the per-procedure ``entry`` node whose outputs are the formals.

Graphs are per-procedure; there are no interprocedural edges.  The
analyses connect calls to callees through the discovered call graph,
exactly as the paper's ``callees``/``callers``/``corresponding-formal``
/``corresponding-result`` primitives do.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..memory.access import AccessOp, AccessPath

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import FunctionGraph


class ValueTag(enum.Enum):
    """Coarse type of the value an output carries (Figure 3 columns)."""

    SCALAR = "scalar"
    POINTER = "pointer"
    FUNCTION = "function"
    AGGREGATE = "aggregate"
    STORE = "store"


class OutputPort:
    """A value produced by a node; the unit points-to sets attach to."""

    __slots__ = ("node", "name", "tag", "carries_pointers", "consumers")

    def __init__(self, node: "Node", name: str, tag: ValueTag,
                 carries_pointers: Optional[bool] = None) -> None:
        self.node = node
        self.name = name
        self.tag = tag
        if carries_pointers is None:
            carries_pointers = tag in (ValueTag.POINTER, ValueTag.FUNCTION,
                                       ValueTag.STORE)
        self.carries_pointers = carries_pointers
        self.consumers: List[InputPort] = []

    @property
    def alias_related(self) -> bool:
        """Whether this output can carry pointer or function values.

        Figure 2's "alias-related outputs" column: type is pointer,
        function, aggregate containing pointer or function, or store.
        """
        if self.tag in (ValueTag.POINTER, ValueTag.FUNCTION, ValueTag.STORE):
            return True
        return self.tag is ValueTag.AGGREGATE and self.carries_pointers

    def __repr__(self) -> str:
        return f"{self.node!r}.{self.name}"

    # Pickling leaves out the consumer links: following them would make
    # pickle recurse once per port-to-port hop, as deep as the longest
    # dataflow chain.  The owning FunctionGraph restores them flat.

    def __getstate__(self) -> tuple:
        return None, {"node": self.node, "name": self.name,
                      "tag": self.tag,
                      "carries_pointers": self.carries_pointers}


class InputPort:
    """A value consumed by a node; fed by exactly one output."""

    __slots__ = ("node", "name", "source")

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self.source: Optional[OutputPort] = None

    def connect(self, source: OutputPort) -> None:
        if self.source is not None:
            self.source.consumers.remove(self)
        self.source = source
        source.consumers.append(self)

    def __repr__(self) -> str:
        return f"{self.node!r}.{self.name}<-"

    def __getstate__(self) -> tuple:
        # The source link is restored by the owning FunctionGraph.
        return None, {"node": self.node, "name": self.name}


class Node:
    """Common behaviour for all VDG nodes."""

    kind: str = "node"

    __slots__ = ("graph", "uid", "inputs", "outputs", "origin")

    def __init__(self, graph: "FunctionGraph", origin: Optional[str] = None) -> None:
        self.graph = graph
        self.uid = graph.register(self)
        self.inputs: List[InputPort] = []
        self.outputs: List[OutputPort] = []
        self.origin = origin

    def _input(self, name: str) -> InputPort:
        port = InputPort(self, name)
        self.inputs.append(port)
        return port

    def _output(self, name: str, tag: ValueTag,
                carries_pointers: Optional[bool] = None) -> OutputPort:
        port = OutputPort(self, name, tag, carries_pointers)
        self.outputs.append(port)
        return port

    def input(self, name: str) -> InputPort:
        for port in self.inputs:
            if port.name == name:
                return port
        raise KeyError(f"{self!r} has no input {name!r}")

    def output(self, name: str) -> OutputPort:
        for port in self.outputs:
            if port.name == name:
                return port
        raise KeyError(f"{self!r} has no output {name!r}")

    def __repr__(self) -> str:
        return f"{self.kind}#{self.uid}"


class ConstNode(Node):
    """A literal (or the null pointer, which points at nothing)."""

    kind = "const"
    __slots__ = ("value", "out")

    def __init__(self, graph: "FunctionGraph", value: object,
                 tag: ValueTag = ValueTag.SCALAR,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.value = value
        self.out = self._output("out", tag, carries_pointers=False)


class AddressNode(Node):
    """Producer of a constant address: the value ``(ε, path)``.

    Covers ``&x`` for store-resident variables, decayed arrays, string
    literals, heap allocation sites (one base-location per static
    ``malloc`` call, Section 2), and function references (tag
    ``FUNCTION``).  The analyses seed each address output with the
    direct pair ``(ε, path)`` — Figure 1's initialization loop.
    """

    kind = "address"
    __slots__ = ("path", "out")

    def __init__(self, graph: "FunctionGraph", path: AccessPath,
                 tag: ValueTag = ValueTag.POINTER,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        if path.base is None:
            raise ValueError(f"address node needs a location path, got {path!r}")
        self.path = path
        self.out = self._output("out", tag)


class LookupNode(Node):
    """A memory read: dereference the ``loc`` value in ``store``."""

    kind = "lookup"
    __slots__ = ("loc", "store", "out")

    def __init__(self, graph: "FunctionGraph", tag: ValueTag,
                 carries_pointers: Optional[bool] = None,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.loc = self._input("loc")
        self.store = self._input("store")
        self.out = self._output("out", tag, carries_pointers)

    @property
    def is_indirect(self) -> bool:
        """Figure 4's notion of an *indirect* read: the location input
        is computed (not a constant address)."""
        src = self.loc.source
        return src is not None and not isinstance(src.node, AddressNode)


class UpdateNode(Node):
    """A memory write: store ``value`` at the ``loc`` value's target."""

    kind = "update"
    __slots__ = ("loc", "store", "value", "ostore")

    def __init__(self, graph: "FunctionGraph",
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.loc = self._input("loc")
        self.store = self._input("store")
        self.value = self._input("value")
        self.ostore = self._output("store", ValueTag.STORE)

    @property
    def is_indirect(self) -> bool:
        src = self.loc.source
        return src is not None and not isinstance(src.node, AddressNode)


class CallNode(Node):
    """A procedure call: ``fcn`` selects callees discovered on the fly."""

    kind = "call"
    __slots__ = ("fcn", "args", "store", "out", "ostore")

    def __init__(self, graph: "FunctionGraph", n_args: int,
                 result_tag: ValueTag = ValueTag.SCALAR,
                 result_carries_pointers: Optional[bool] = None,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.fcn = self._input("fcn")
        self.args = [self._input(f"arg{i}") for i in range(n_args)]
        self.store = self._input("store")
        self.out = self._output("out", result_tag, result_carries_pointers)
        self.ostore = self._output("store", ValueTag.STORE)


class EntryNode(Node):
    """Procedure entry: one output per formal, plus the store formal."""

    kind = "entry"
    __slots__ = ("formals", "store_out")

    def __init__(self, graph: "FunctionGraph",
                 formal_specs: Sequence[tuple[str, ValueTag, Optional[bool]]],
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.formals = [self._output(f"formal:{name}", tag, cp)
                        for name, tag, cp in formal_specs]
        self.store_out = self._output("store", ValueTag.STORE)


class ReturnNode(Node):
    """Procedure exit: consumes the return value (if any) and store."""

    kind = "return"
    __slots__ = ("value", "store")

    def __init__(self, graph: "FunctionGraph", has_value: bool,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.value = self._input("value") if has_value else None
        self.store = self._input("store")


class MergeNode(Node):
    """Control-flow join (the paper's ``if`` node).

    Values from all branches propagate to the output; the predicate
    input, when present, is ignored by the analyses — exactly the
    Figure 1 behaviour ("values from both branches propagate to the
    output; predicate is ignored").  Also used as loop headers, where
    one input is the back edge.
    """

    kind = "merge"
    __slots__ = ("pred", "branches", "out")

    def __init__(self, graph: "FunctionGraph", n_branches: int,
                 tag: ValueTag, carries_pointers: Optional[bool] = None,
                 with_pred: bool = False,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        self.pred = self._input("pred") if with_pred else None
        self.branches = [self._input(f"in{i}") for i in range(n_branches)]
        self.out = self._output("out", tag, carries_pointers)

    def add_branch(self) -> InputPort:
        """Grow the merge by one input (used while lowering joins)."""
        port = self._input(f"in{len(self.branches)}")
        self.branches.append(port)
        return port


class PrimopSemantics(enum.Enum):
    """How a primop's output points-to set derives from its inputs."""

    OPAQUE = "opaque"    # arithmetic/comparison: produces no pairs
    COPY = "copy"        # pairs of designated inputs flow through unchanged
                         # (pointer arithmetic stays inside the array, casts
                         # between pointer types, strcpy-style returns)
    FIELD = "field"      # (ε, r) becomes (ε, r.field): member address
    INDEX = "index"      # (ε, r) becomes (ε, r[*]): element address / decay
    EXTRACT = "extract"  # (field·o, r) becomes (o, r): member read out of
                         # an aggregate *value* (e.g. f().member)


def input_roles(node: Node):
    """Yield ``(port, role, index)`` for every input of ``node``.

    The role string names the transfer-function case the port selects
    (e.g. ``"lookup.loc"``); ``index`` is the positional index for
    ``call.arg`` / ``merge.branch`` / ``primop.operand`` ports and
    ``-1`` otherwise.  This is the single place the solvers' dispatch
    tables are derived from — built once per run, replacing the
    per-event ``isinstance``/port-identity chains of the naive loop.
    """
    if isinstance(node, LookupNode):
        yield node.loc, "lookup.loc", -1
        yield node.store, "lookup.store", -1
    elif isinstance(node, UpdateNode):
        yield node.loc, "update.loc", -1
        yield node.store, "update.store", -1
        yield node.value, "update.value", -1
    elif isinstance(node, CallNode):
        yield node.fcn, "call.fcn", -1
        for i, arg in enumerate(node.args):
            yield arg, "call.arg", i
        yield node.store, "call.store", -1
    elif isinstance(node, ReturnNode):
        if node.value is not None:
            yield node.value, "return.value", -1
        yield node.store, "return.store", -1
    elif isinstance(node, MergeNode):
        if node.pred is not None:
            yield node.pred, "merge.pred", -1
        for i, branch in enumerate(node.branches):
            yield branch, "merge.branch", i
    elif isinstance(node, PrimopNode):
        for i, operand in enumerate(node.operands):
            yield operand, "primop.operand", i
    else:
        for port in node.inputs:
            yield port, "unknown", -1


class PrimopNode(Node):
    """Primitive operation; behaviour varies by operator (Figure 1).

    ``copy_operand`` restricts COPY semantics to one designated input:
    pairs flow from that operand only, while the others are merely
    consumed (e.g. a library call modeled as the identity function on
    stores still *reads* its arguments).
    """

    kind = "primop"
    __slots__ = ("op", "semantics", "field_op", "operands", "out",
                 "copy_operand")

    def __init__(self, graph: "FunctionGraph", op: str, n_operands: int,
                 tag: ValueTag,
                 semantics: PrimopSemantics = PrimopSemantics.OPAQUE,
                 field_op: Optional[AccessOp] = None,
                 carries_pointers: Optional[bool] = None,
                 copy_operand: Optional[int] = None,
                 origin: Optional[str] = None) -> None:
        super().__init__(graph, origin)
        if semantics in (PrimopSemantics.FIELD, PrimopSemantics.EXTRACT) \
                and field_op is None:
            raise ValueError(f"{semantics.value} primop requires a field_op")
        if copy_operand is not None:
            if semantics is not PrimopSemantics.COPY:
                raise ValueError("copy_operand requires COPY semantics")
            if copy_operand < 0:
                copy_operand += n_operands
            if not 0 <= copy_operand < n_operands:
                raise ValueError("copy_operand out of range")
        self.op = op
        self.semantics = semantics
        self.field_op = field_op
        self.copy_operand = copy_operand
        self.operands = [self._input(f"in{i}") for i in range(n_operands)]
        self.out = self._output("out", tag, carries_pointers)

    def __repr__(self) -> str:
        return f"primop:{self.op}#{self.uid}"
