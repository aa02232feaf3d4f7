"""Function graphs and whole programs.

A :class:`FunctionGraph` is the VDG of one procedure: an entry node
whose outputs are the formals (plus the store formal), a single return
node, and the dataflow nodes in between.  A :class:`Program` collects
the function graphs, the base-location registry, the initial store
contents contributed by global initializers, and the analysis roots.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import IRError
from ..memory.base import BaseLocation
from ..memory.pairs import PointsToPair
from .nodes import (
    AddressNode,
    EntryNode,
    LookupNode,
    Node,
    OutputPort,
    ReturnNode,
    UpdateNode,
    ValueTag,
)


class FunctionGraph:
    """The value dependence graph of one procedure."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[Node] = []
        self._next_uid = 0
        self.entry: Optional[EntryNode] = None
        self.return_node: Optional[ReturnNode] = None
        #: Source line count of the procedure, when known (Figure 2).
        self.source_lines: int = 0
        #: Whether the procedure participates in recursion (footnote 4).
        self.recursive: bool = False
        #: Values consumed by control decisions (branch/loop/switch
        #: predicates).  In a full VDG these are γ/μ-node inputs; here
        #: they anchor liveness so dead-node removal never deletes a
        #: computation the program's control flow depends on.
        self.control_uses: List["OutputPort"] = []

    # -- construction ----------------------------------------------------

    def register(self, node: Node) -> int:
        """Assign a uid; called from ``Node.__init__``."""
        uid = self._next_uid
        self._next_uid += 1
        self.nodes.append(node)
        return uid

    def unregister(self, node: Node) -> None:
        """Drop a node (used by the simplifier); ports must be detached."""
        self.nodes.remove(node)

    def set_entry(self, entry: EntryNode) -> None:
        if self.entry is not None:
            raise IRError(f"{self.name}: entry node already set")
        self.entry = entry

    def set_return(self, ret: ReturnNode) -> None:
        if self.return_node is not None:
            raise IRError(f"{self.name}: return node already set")
        self.return_node = ret

    def add_control_use(self, port: "OutputPort") -> None:
        """Record that a value steers control flow (stays live)."""
        if port.node.graph is not self:
            raise IRError(f"{self.name}: foreign control use {port!r}")
        self.control_uses.append(port)

    # -- interprocedural correspondence (paper's primitives) -------------

    @property
    def formals(self) -> List[OutputPort]:
        if self.entry is None:
            raise IRError(f"{self.name}: no entry node")
        return self.entry.formals

    @property
    def store_formal(self) -> OutputPort:
        if self.entry is None:
            raise IRError(f"{self.name}: no entry node")
        return self.entry.store_out

    def corresponding_formal(self, arg_index: int) -> Optional[OutputPort]:
        """Formal output for the ``arg_index``-th actual, or ``None``
        when the call passes more arguments than the procedure declares
        (extra varargs-style actuals are dropped, as the paper's
        benchmarks' printf-style calls require)."""
        formals = self.formals
        if arg_index < len(formals):
            return formals[arg_index]
        return None

    # -- queries ----------------------------------------------------------

    def outputs(self) -> Iterator[OutputPort]:
        for node in self.nodes:
            yield from node.outputs

    def alias_related_outputs(self) -> Iterator[OutputPort]:
        for port in self.outputs():
            if port.alias_related:
                yield port

    def memory_operations(self) -> Iterator[Node]:
        for node in self.nodes:
            if isinstance(node, (LookupNode, UpdateNode)):
                yield node

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        # Ports pickle without their links (see OutputPort); the links
        # travel here, flat, after the nodes: every output with its
        # consumers in their original order (consumer order is the
        # solvers' visit order), and every input fed by nothing.
        state = self.__dict__.copy()
        state["_links"] = [(output, output.consumers)
                           for node in self.nodes
                           for output in node.outputs]
        state["_unfed"] = [port for node in self.nodes
                           for port in node.inputs if port.source is None]
        return state

    def __setstate__(self, state: dict) -> None:
        links = state.pop("_links", ())
        unfed = state.pop("_unfed", ())
        self.__dict__.update(state)
        # Only the ports themselves are touched: a pickle that reached
        # this graph through one of its nodes has not built them yet.
        for output, consumers in links:
            output.consumers = consumers
            for port in consumers:
                port.source = output
        for port in unfed:
            port.source = None

    def __repr__(self) -> str:
        return f"<FunctionGraph {self.name}: {len(self.nodes)} nodes>"


class Program:
    """A whole analyzed program: graphs, locations, roots, initial store."""

    def __init__(self, name: str = "<program>") -> None:
        self.name = name
        self.functions: Dict[str, FunctionGraph] = {}
        #: Analysis roots; the worklist seeds their entry stores with the
        #: initial (global-initializer) store pairs.
        self.roots: List[str] = []
        #: Points-to pairs established by static initializers.
        self.initial_store: List[PointsToPair] = []
        #: Extra unconditional value seeds: (output, pair).  Used for
        #: synthesized environments such as ``main``'s ``argv``.
        self.seeded_values: List[tuple] = []
        #: Every base-location the frontend created, for Figure 1's
        #: initialization loop and for reporting.
        self.locations: List[BaseLocation] = []
        #: Code-address location of each defined function, used to
        #: resolve function values at (indirect) calls.
        self.function_locations: Dict[str, BaseLocation] = {}
        self._function_by_location: Dict[int, str] = {}
        #: Total source line count (Figure 2), set by the frontend.
        self.source_lines: int = 0
        #: Free-form metadata (frontend warnings, provenance, ...).
        self.extras: Dict[str, object] = {}

    # -- construction -----------------------------------------------------

    def add_function(self, graph: FunctionGraph,
                     location: Optional[BaseLocation] = None) -> None:
        if graph.name in self.functions:
            raise IRError(f"duplicate function {graph.name}")
        self.functions[graph.name] = graph
        if location is not None:
            self.function_locations[graph.name] = location
            self._function_by_location[id(location)] = graph.name

    def add_root(self, name: str) -> None:
        if name not in self.functions:
            raise IRError(f"root {name!r} is not a defined function")
        if name not in self.roots:
            self.roots.append(name)

    def register_location(self, loc: BaseLocation) -> BaseLocation:
        self.locations.append(loc)
        return loc

    def seed_store(self, pairs: Iterable[PointsToPair]) -> None:
        self.initial_store.extend(pairs)

    def seed_value(self, output: "OutputPort", pair: PointsToPair) -> None:
        """Record an unconditional points-to seed on an arbitrary output
        (e.g. a root formal's synthesized environment)."""
        self.seeded_values.append((output, pair))

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        # _function_by_location is keyed by id(location); ids are not
        # stable across processes, so drop it and rebuild on load.
        state = self.__dict__.copy()
        del state["_function_by_location"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._function_by_location = {
            id(loc): name for name, loc in self.function_locations.items()}

    # -- queries ------------------------------------------------------------

    def function_for_location(self, loc: BaseLocation) -> Optional[FunctionGraph]:
        """Resolve a FUNCTION base-location to its graph (indirect calls)."""
        name = self._function_by_location.get(id(loc))
        if name is None:
            return None
        return self.functions[name]

    def root_graphs(self) -> List[FunctionGraph]:
        return [self.functions[name] for name in self.roots]

    def all_nodes(self) -> Iterator[Node]:
        for graph in self.functions.values():
            yield from graph.nodes

    def all_outputs(self) -> Iterator[OutputPort]:
        for graph in self.functions.values():
            yield from graph.outputs()

    def node_count(self) -> int:
        return sum(len(g.nodes) for g in self.functions.values())

    def alias_related_output_count(self) -> int:
        return sum(1 for port in self.all_outputs() if port.alias_related)

    def address_nodes(self) -> Iterator[AddressNode]:
        for node in self.all_nodes():
            if isinstance(node, AddressNode):
                yield node

    def __repr__(self) -> str:
        return (f"<Program {self.name}: {len(self.functions)} functions, "
                f"{self.node_count()} nodes>")
