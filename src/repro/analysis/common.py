"""Shared infrastructure for both points-to analyses.

Both the context-insensitive (Figure 1) and context-sensitive
(Figure 5) algorithms are worklist analyses over the same graphs; they
share the solution container, the operation counters the paper reports
(transfer functions executed, meet operations performed), and the
dynamically discovered call graph.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..choices import SCHEDULES
from ..errors import AnalysisError
from ..memory.access import EMPTY_OFFSET, AccessPath
from ..memory.base import LocationKind
from ..memory.facttable import FactTable, bitset_words, decode_ids
from ..memory.pairs import PointsToPair
from ..ir.graph import FunctionGraph, Program
from ..ir.nodes import CallNode, InputPort, LookupNode, Node, OutputPort, UpdateNode

if TYPE_CHECKING:  # pragma: no cover
    pass

#: Shared immutable empty views, returned on misses instead of
#: allocating a fresh ``set()`` per query (these calls sit on hot
#: paths: every transfer function consults its sibling inputs).
_NO_PAIRS: FrozenSet[PointsToPair] = frozenset()
_NO_EDGES: Mapping = MappingProxyType({})


def check_schedule(schedule: str) -> str:
    if schedule not in SCHEDULES:
        raise AnalysisError(
            f"unknown schedule {schedule!r}; expected one of "
            f"{', '.join(SCHEDULES)}")
    return schedule


@dataclass
class Counters:
    """Operation counts the paper compares across the two analyses.

    * ``transfers`` — facts processed by ``flow-in``.  The paper: CS
      executes only ~10% more than CI.  Schedule-independent for the
      context-insensitive and flow-insensitive analyses (each fact is
      queued to a consumer exactly once, when it is first added to the
      producing output); a bitset engine counts the set bits it pops,
      so a batch of n facts is n transfers.  FI's re-firing of lookups
      when the global store grows is not a transfer.
    * ``meets`` — applications of ``flow-out`` (attempted set joins).
      The paper: CS performs up to 100× more than CI.  *Not*
      schedule-independent: whether a (location, store) combination is
      attempted once or twice depends on arrival order.  The CS and
      FI bitset engines count one meet per attempted join, as their
      per-fact references do: a kernel image counts one per fact it
      produces for each location (a two-location update counts each
      surviving store pair twice), even when the join is subsumed.
    * ``pairs_added`` — joins that actually grew a set.  Equals the
      final solution size, hence schedule-independent for CI.
    * ``batches`` — worklist pops under the batched schedule (equals
      ``transfers`` under FIFO).  Not a paper counter; reported via
      :meth:`as_dict` only when ``extended=True`` so the paper tables
      keep their original three columns.
    """

    transfers: int = 0
    meets: int = 0
    pairs_added: int = 0
    batches: int = 0

    def as_dict(self, extended: bool = False) -> Dict[str, int]:
        base = {"transfers": self.transfers, "meets": self.meets,
                "pairs_added": self.pairs_added}
        if extended:
            base["batches"] = self.batches
        return base


class CallGraph:
    """Call edges discovered while the analysis runs.

    ``callees`` / ``callers`` mirror the primitives of Figure 1's
    definitions box; edges appear as function values reach ``fcn``
    inputs (new edges trigger repropagation of already-known facts).
    Both return read-only set views that iterate in edge-discovery
    order: nodes and graphs hash by identity, so a plain set would
    iterate in memory-address order, and the CS solver's transfer and
    meet counts would change from process to process.
    """

    def __init__(self) -> None:
        # Dicts with None values: insertion-ordered sets.
        self._callees: Dict[CallNode, Dict[FunctionGraph, None]] = {}
        self._callers: Dict[FunctionGraph, Dict[CallNode, None]] = {}
        #: Call sites whose function value resolved to something that is
        #: not a defined function (e.g. data treated as code); recorded
        #: rather than silently dropped.
        self.unresolved: Set[CallNode] = set()

    def callees(self, call: CallNode) -> AbstractSet[FunctionGraph]:
        return self._callees.get(call, _NO_EDGES).keys()

    def callers(self, graph: FunctionGraph) -> AbstractSet[CallNode]:
        return self._callers.get(graph, _NO_EDGES).keys()

    def add_edge(self, call: CallNode, callee: FunctionGraph) -> bool:
        """Record a call edge; returns True if it is new."""
        known = self._callees.setdefault(call, {})
        if callee in known:
            return False
        known[callee] = None
        self._callers.setdefault(callee, {})[call] = None
        return True

    def edges(self) -> Iterator[tuple[CallNode, FunctionGraph]]:
        for call, callees in self._callees.items():
            for callee in callees:
                yield call, callee

    def edge_count(self) -> int:
        return sum(len(c) for c in self._callees.values())


class PointsToSolution:
    """The analysis output: node output → set of points-to pairs.

    Internally each output's set is a big-int **bitset** over the dense
    pair ids of a :class:`~repro.memory.facttable.FactTable` — joins
    are ``|``/``& ~`` over machine words, membership is one shift and
    AND.  The object-level API (:meth:`pairs`, :meth:`targets`,
    :meth:`op_locations`, :meth:`items`) is a *lazy decoding view*:
    bitsets materialize into interned pair objects only when queried,
    with a per-output cache invalidated by bitset growth, so clients
    (stats, verify, compare, the fuzz oracle) observe exactly the sets
    they always did.

    Query helpers cover the patterns clients (mod/ref, def/use, the
    statistics module) need: the *targets* of a pointer value and the
    locations an indirect memory operation may reference or modify.
    """

    def __init__(self, table: Optional[FactTable] = None) -> None:
        #: The id table bitsets are encoded against.  Solutions built
        #: by one analysis share the program-wide table so CI, CS, and
        #: repeat runs agree on ids.
        self.table = table if table is not None else FactTable()
        #: Per-output fact set, one big-int bitset each.
        self._masks: Dict[OutputPort, int] = {}
        #: Decode cache: output → (bits snapshot, decoded frozenset).
        self._decoded: Dict[OutputPort, Tuple[int, FrozenSet[PointsToPair]]] = {}

    # -- mutation (analysis-internal) -------------------------------------

    def add(self, output: OutputPort, pair: PointsToPair) -> bool:
        return self.join_mask(output, 1 << self.table.pair_id(pair)) != 0

    def join(self, output: OutputPort,
             pairs: Iterable[PointsToPair]) -> Set[PointsToPair]:
        """Delta-join: add ``pairs`` to ``output``'s set and return
        only the genuinely new pairs (possibly empty).  Object-level
        wrapper over :meth:`join_mask`."""
        new = self.join_mask(output, self.table.pair_mask(pairs))
        if not new:
            return set()
        return set(self.table.decode_pairs(new))

    def join_mask(self, output: OutputPort, mask: int) -> int:
        """Bitset delta-join: OR ``mask`` into the output's set and
        return the sub-bitset of genuinely new facts."""
        old = self._masks.get(output, 0)
        new = mask & ~old
        if new:
            self._masks[output] = old | new
        return new

    def mask(self, output: OutputPort) -> int:
        """The output's current bitset (0 when empty)."""
        return self._masks.get(output, 0)

    def targets_mask(self, output: OutputPort) -> int:
        """Path-id bitset of :meth:`targets` (the direct referents of
        the output's pairs) — no objects materialized."""
        return self.table.targets_mask(self.mask(output))

    def op_targets_mask(self, node: Node) -> int:
        """Mask-level :meth:`op_locations`: the path-id bitset a
        lookup may reference / an update may modify.  The decode-free
        clients (mod/ref, dead stores) are built on this."""
        if isinstance(node, (LookupNode, UpdateNode)):
            src = node.loc.source
            if src is None:
                raise AnalysisError(f"{node!r} has a dangling loc input")
            return self.targets_mask(src)
        raise AnalysisError(f"{node!r} is not a memory operation")

    # -- queries (lazy decoding view) --------------------------------------

    def pairs(self, output: OutputPort) -> FrozenSet[PointsToPair]:
        bits = self.mask(output)
        if not bits:
            return _NO_PAIRS
        cached = self._decoded.get(output)
        if cached is not None and cached[0] == bits:
            return cached[1]
        decoded = frozenset(self.table.decode_pairs(bits))
        self._decoded[output] = (bits, decoded)
        return decoded

    def raw_pairs(self, output: OutputPort) -> FrozenSet[PointsToPair]:
        """Internal: the decoded view (cached, not copied per call).
        A snapshot of the current set — do not mutate."""
        return self.pairs(output)

    def targets(self, output: OutputPort,
                offset: Optional[AccessPath] = None) -> Set[AccessPath]:
        """Locations this value may point at (referents of direct pairs,
        or of pairs at ``offset`` within an aggregate value)."""
        if offset is None:
            offset = EMPTY_OFFSET
        return {p.referent for p in self.pairs(output)
                if p.path is offset}

    def op_locations(self, node: Node) -> Set[AccessPath]:
        """Locations a lookup may reference / an update may modify: the
        direct referents at the node's location input.  This is what
        Figure 4 tabulates and what a def/use or mod/ref client reads."""
        if isinstance(node, (LookupNode, UpdateNode)):
            src = node.loc.source
            if src is None:
                raise AnalysisError(f"{node!r} has a dangling loc input")
            return self.targets(src)
        raise AnalysisError(f"{node!r} is not a memory operation")

    def outputs(self) -> Iterator[OutputPort]:
        return iter(self._masks)

    def total_pairs(self) -> int:
        return sum(mask.bit_count() for mask in self._masks.values())

    def bitset_words(self) -> int:
        """Total 64-bit words the per-output bitsets span (telemetry)."""
        return sum(bitset_words(mask) for mask in self._masks.values())

    def items(self) -> Iterator[tuple[OutputPort, FrozenSet[PointsToPair]]]:
        for output in self._masks:
            yield output, self.pairs(output)


@dataclass
class AnalysisResult:
    """Everything one analysis run produces."""

    program: Program
    solution: PointsToSolution
    callgraph: CallGraph
    counters: Counters
    elapsed_seconds: float = 0.0
    #: "insensitive", "sensitive", or "flowinsensitive".
    flavor: str = "insensitive"
    extras: dict = field(default_factory=dict)

    @property
    def phases(self) -> Dict[str, float]:
        """Wall-clock phase accounting for this result: the program's
        frontend phases (preprocess/parse/lower, or cache_load on a
        cache hit — recorded by the lowering path in
        ``program.extras["phases"]``) merged with the analysis's own
        phases (``solve``).  Frontend phases are program-level and thus
        shared by every flavor analyzed from the same program."""
        merged: Dict[str, float] = {}
        merged.update(self.program.extras.get("phases", {}))
        merged.update(self.extras.get("phases", {}))
        return merged

    @property
    def cache_status(self) -> str:
        """Lowering-cache outcome for this result's program:
        ``"hit"``, ``"miss"``, or ``"off"``."""
        return self.program.extras.get("cache", "off")

    def pairs(self, output: OutputPort) -> FrozenSet[PointsToPair]:
        return self.solution.pairs(output)

    def targets(self, output: OutputPort) -> Set[AccessPath]:
        return self.solution.targets(output)

    def op_locations(self, node: Node) -> Set[AccessPath]:
        return self.solution.op_locations(node)


def solution_digest(result: AnalysisResult) -> str:
    """Canonical content hash of a solution, stable across processes.

    Node uids are assigned deterministically by the lowering and pair
    reprs contain no ids, so equal solutions of equal programs digest
    equally even after pickling across a process pool or a cache
    round-trip.  One line per output: ``graph|kind#uid|port|`` and the
    output's sorted pair reprs joined by ``;``.

    Works on the masks: each fact id is rendered once and each
    distinct mask's text built once, so the cost follows the distinct
    facts and masks rather than every occurrence of a fact, and no
    pair set is decoded.
    """
    solution = result.solution
    pair_of = solution.table.pair_of
    rendered: Dict[int, str] = {}
    texts: Dict[int, str] = {}
    lines = []
    for output in solution.outputs():
        mask = solution.mask(output)
        text = texts.get(mask)
        if text is None:
            reprs = []
            for ident in decode_ids(mask):
                fact = rendered.get(ident)
                if fact is None:
                    fact = rendered[ident] = repr(pair_of(ident))
                reprs.append(fact)
            text = texts[mask] = ";".join(sorted(reprs))
        node = output.node
        lines.append(f"{node.graph.name}|{node.kind}#{node.uid}|"
                     f"{output.name}|{text}")
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Worklist:
    """FIFO queue of (input port, fact) items.

    The paper notes the algorithm's convergence time is independent of
    the scheduling strategy; FIFO keeps runs deterministic.
    """

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, input_port: InputPort, fact: object) -> None:
        if input_port is None:
            raise AnalysisError(
                f"fact {fact!r} pushed to a None input port (dangling "
                "graph edge?)")
        self._queue.append((input_port, fact))

    def pop(self) -> tuple[InputPort, object]:
        return self._queue.popleft()

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


class LaneWorklist:
    """Port-keyed worklist of the batched CS engine: per port, one
    pending bitset of unconditional facts (the lane) and one list of
    facts that carry assumptions.

    A FIFO of dirty ports decides processing order; a pop drains both
    of a port's pending parts through one handler application.  Each
    fact reaches a given consumer at most once (producers only forward
    facts their output did not already hold), so the per-port lists
    are duplicate-free by construction.
    """

    __slots__ = ("lanes", "conds", "_dirty")

    def __init__(self) -> None:
        self.lanes: Dict[InputPort, int] = {}
        self.conds: Dict[InputPort, List[object]] = {}
        self._dirty: deque = deque()

    def push_mask(self, input_port: InputPort, mask: int) -> None:
        if input_port is None:
            raise AnalysisError(
                "facts pushed to a None input port (dangling graph edge?)")
        current = self.lanes.get(input_port)
        if current is None:
            self.lanes[input_port] = mask
            if input_port not in self.conds:
                self._dirty.append(input_port)
        else:
            self.lanes[input_port] = current | mask

    def push(self, input_port: InputPort, fact: object) -> None:
        if input_port is None:
            raise AnalysisError(
                f"fact {fact!r} pushed to a None input port (dangling "
                "graph edge?)")
        bucket = self.conds.get(input_port)
        if bucket is None:
            self.conds[input_port] = [fact]
            if input_port not in self.lanes:
                self._dirty.append(input_port)
        else:
            bucket.append(fact)

    def pop(self) -> Tuple[InputPort, int, List[object]]:
        """Pop the oldest dirty port with its pending lane bitset and
        its pending conditional facts."""
        port = self._dirty.popleft()
        return port, self.lanes.pop(port, 0), self.conds.pop(port, ())

    def __bool__(self) -> bool:
        return bool(self._dirty)

    def __len__(self) -> int:
        return len(self._dirty)


class MaskWorklist:
    """Port-keyed worklist over fact bitsets (the dense CI and FI
    engines).

    Pending facts per port are one big-int; merging a later push is a
    single OR.  A FIFO of dirty ports decides processing order, and a
    pop drains the port's whole pending bitset through one handler
    application.
    """

    __slots__ = ("pending", "_dirty")

    def __init__(self) -> None:
        self.pending: Dict[InputPort, int] = {}
        self._dirty: deque = deque()

    def push_mask(self, input_port: InputPort, mask: int) -> None:
        if input_port is None:
            raise AnalysisError(
                "facts pushed to a None input port (dangling graph edge?)")
        if not mask:
            return
        current = self.pending.get(input_port)
        if current is None:
            self.pending[input_port] = mask
            self._dirty.append(input_port)
        else:
            self.pending[input_port] = current | mask

    def pop(self) -> Tuple[InputPort, int]:
        """Pop the oldest dirty port with its whole pending bitset."""
        port = self._dirty.popleft()
        return port, self.pending.pop(port)

    def __bool__(self) -> bool:
        return bool(self._dirty)

    def __len__(self) -> int:
        return len(self._dirty)


def resolve_function_value(program: Program, referent: AccessPath
                           ) -> Optional[FunctionGraph]:
    """Map a function value's referent to a defined function graph.

    Function values are direct pairs whose referent is a bare
    FUNCTION-kind base-location path.
    """
    if referent.ops or referent.base is None:
        return None
    if referent.base.kind is not LocationKind.FUNCTION:
        return None
    return program.function_for_location(referent.base)


def seed_addresses(program: Program, flow_out) -> None:
    """Figure 1's initialization: every base-location producer emits
    the direct pair ``(ε, path)`` on its output."""
    from ..memory.pairs import direct

    for node in program.address_nodes():
        flow_out(node.out, direct(node.path))


def seed_roots(program: Program, flow_out) -> None:
    """Seed each analysis root's entry store with the initial store
    (global-initializer) pairs, plus any explicit value seeds (e.g.
    ``main``'s synthesized ``argv`` environment)."""
    for graph in program.root_graphs():
        for pair in program.initial_store:
            flow_out(graph.store_formal, pair)
    for output, pair in program.seeded_values:
        flow_out(output, pair)
