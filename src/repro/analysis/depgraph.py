"""Alias-aware interprocedural dependence graphs.

Two layers live here:

1. :class:`ReachingDefs` — the shared mask-level reaching-definitions
   engine behind every store-walking client (``clients/defuse``,
   ``clients/deadstore``, and the dependence graph itself).  One
   backward walk per memory read carries the read's *entire* location
   footprint as a bitmask; states deduplicate on
   ``(store output, call stack)`` with the subset of footprint bits
   already propagated, so the walk is a monotone fixpoint over
   location sets instead of one traversal per ``(read, location)``
   pair.  The same walk takes many starts at once: dead stores need
   only which updates *some* read observes, one walk from every read
   over the union of their footprints.  Path objects are decoded
   exactly once per memory operation (``decode_paths`` of the small
   ``op_targets_mask``), never per edge — the alias tests between an
   update's targets and a read's footprint reuse those interned
   paths.

2. :class:`DependenceGraph` — the program dependence graph computed
   from any solved :class:`~repro.analysis.common.AnalysisResult`:

   * ``value`` edges: SSA operand flow (every non-store input port);
   * ``mem``   edges: update → lookup reaching definitions, resolved
     through ``targets_mask`` / may-alias with strong-update kills —
     the edges a syntactic slicer cannot compute;
   * ``call``  edges: call ↔ callee entry/return, from the points-to
     call graph (so function-pointer calls resolve precisely);
   * ``control`` edges: merge predicates from the lowered control
     joins, plus the function's recorded control-steering values for
     predicate-less merges (loop headers).

Node identity is the stable ``function:kind#uid`` key the report layer
already uses, so graphs, slices, and digests are deterministic across
schedules, process boundaries, and cache states.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..errors import AnalysisError
from ..ir.nodes import (
    CallNode,
    EntryNode,
    LookupNode,
    MergeNode,
    Node,
    OutputPort,
    PrimopNode,
    PrimopSemantics,
    UpdateNode,
    ValueTag,
)
from ..memory.access import AccessPath
from ..memory.relations import may_alias, strong_dom
from .common import AnalysisResult

#: Synthetic definition: the store as it was at program start.
INITIAL = "<initial-store>"

#: Node key of the synthetic initial-store definition.
INITIAL_KEY = "<initial-store>"

Definition = Union[UpdateNode, str]

#: Alias test used for mem-edge resolution.  Module-level so the fuzz
#: mutation tooth ("drop-alias-deps") can swap it for an identity test
#: and prove the oracle notices the missing alias-derived edges.
MAY_ALIAS = may_alias

#: Dependence edge kinds, in display order.
EDGE_KINDS = ("value", "mem", "call", "control")


def node_key(node: Node) -> str:
    """Stable, process-independent identity (mirrors report/export)."""
    return f"{node.graph.name}:{node.kind}#{node.uid}"


class ReachingDefs:
    """Shared reaching-definitions engine over one analysis result.

    ``call_site_sensitive=True`` resumes each callee's store chain at
    the specific call that entered it; ``False`` (the default here —
    whole-program sweeps) walks context-insensitively, keeping the
    state space linear in the graph.
    """

    def __init__(self, result: AnalysisResult,
                 max_visits: int = 1_000_000,
                 call_site_sensitive: bool = False) -> None:
        self.result = result
        self.program = result.program
        self.max_visits = max_visits
        self.call_site_sensitive = call_site_sensitive
        #: memory op → decoded target paths (the only decode site).
        self._op_paths: Dict[Node, Tuple[AccessPath, ...]] = {}
        #: read → ({definition: footprint bitmask}, footprint paths).
        self._defs: Dict[LookupNode,
                         Tuple[Dict[Definition, int],
                               Tuple[AccessPath, ...]]] = {}

    # -- public queries ------------------------------------------------

    def footprint(self, read: LookupNode) -> Tuple[AccessPath, ...]:
        """The locations a read may reference (decoded once)."""
        return self.op_paths(read)

    def reaching_definitions(self, read: LookupNode) -> Set[Definition]:
        """Every definition (update node or :data:`INITIAL`) whose
        stored value the read may observe, over the read's whole
        footprint.  Memoized per read node."""
        defmap, _ = self._reach(read)
        return set(defmap)

    def reaching_any(self, reads: Iterable[LookupNode]) -> Set[Definition]:
        """Every definition some read in ``reads`` may observe: the
        union of their :meth:`reaching_definitions`, from one walk.

        The walk starts at every read's store input with that read's
        footprint bits over the union of the footprints.  A location
        bit travels alone through every transfer (the may-alias hit and
        the strong-update kill test it by itself), so the walk reaches
        an ``(output, stack, bit)`` state exactly when some read's own
        walk does, and the union is exact.
        """
        index: Dict[AccessPath, int] = {}
        starts: List[Tuple[OutputPort, int]] = []
        for read in reads:
            store_src = self._store_input(read)
            bits = 0
            for path in self.op_paths(read):
                bits |= 1 << index.setdefault(path, len(index))
            if bits:
                starts.append((store_src, bits))
        return set(self._walk(starts, tuple(index)))

    def definitions_for(self, read: LookupNode,
                        location: AccessPath) -> Set[Definition]:
        """Reaching definitions for one specific read location."""
        defmap, footprint = self._reach(read)
        for bit, path in enumerate(footprint):
            if path == location:
                want = 1 << bit
                return {d for d, bits in defmap.items() if bits & want}
        # Not part of the read's decoded footprint: walk it alone.
        return set(self._walk([(self._store_input(read), 1)],
                              (location,)))

    def op_paths(self, node: Node) -> Tuple[AccessPath, ...]:
        """Decoded target paths of one memory operation (cached)."""
        paths = self._op_paths.get(node)
        if paths is None:
            solution = self.result.solution
            paths = tuple(solution.table.decode_paths(
                solution.op_targets_mask(node)))
            self._op_paths[node] = paths
        return paths

    # -- the walk ------------------------------------------------------

    def _store_input(self, read: LookupNode) -> OutputPort:
        """The store a read observes, where its backward walk starts."""
        if not isinstance(read, LookupNode):
            raise AnalysisError(f"{read!r} is not a memory read")
        store_src = read.store.source
        if store_src is None:
            raise AnalysisError(f"{read!r} has a dangling store input")
        return store_src

    def _reach(self, read: LookupNode
               ) -> Tuple[Dict[Definition, int], Tuple[AccessPath, ...]]:
        cached = self._defs.get(read)
        if cached is not None:
            return cached
        store_src = self._store_input(read)
        footprint = self.op_paths(read)
        defmap = self._walk([(store_src, (1 << len(footprint)) - 1)],
                            footprint) if footprint else {}
        self._defs[read] = (defmap, footprint)
        return defmap, footprint

    def _walk(self, starts: List[Tuple[OutputPort, int]],
              footprint: Tuple[AccessPath, ...]) -> Dict[Definition, int]:
        """Iterative backward walk over the store dependence graph.

        ``starts`` pairs each start store with its live bits over
        ``footprint``; one read's walk is the one-start case.  A state
        is re-expanded only for bits it has not yet propagated, so the
        visit count is bounded by states × footprint bits with full
        sharing between locations (and starts) that travel together.
        The call stack (when enabled) gives call-site sensitivity;
        recursion is capped by never pushing a call already on the
        stack.  The visit budget is ``max_visits`` per start, what the
        starts' own walks would have been allowed together.
        """
        budget = self.max_visits * len(starts)
        defmap: Dict[Definition, int] = {}
        #: (output id, stack) → bits already propagated through it.
        seen: Dict[Tuple[int, Tuple[CallNode, ...]], int] = {}
        #: per-update (alias_bits, kill_bits) against this footprint.
        update_bits: Dict[UpdateNode, Tuple[int, int]] = {}
        #: base location → (bit mask, path) of the footprint over it.
        by_base: Dict[object, List[Tuple[int, AccessPath]]] = {}
        for bit, path in enumerate(footprint):
            by_base.setdefault(path.base, []).append((1 << bit, path))
        work: List[Tuple[OutputPort, Tuple[CallNode, ...], int]] = [
            (start, (), bits) for start, bits in starts]
        visits = 0
        while work:
            output, call_stack, live = work.pop()
            key = (id(output), call_stack)
            live &= ~seen.get(key, 0)
            if not live:
                continue
            seen[key] = seen.get(key, 0) | live
            visits += 1
            if visits > budget:
                raise AnalysisError(
                    "def/use walk exceeded its visit budget")

            node = output.node
            if isinstance(node, UpdateNode):
                bits = update_bits.get(node)
                if bits is None:
                    bits = self._update_bits(node, by_base)
                    update_bits[node] = bits
                alias_bits, kill_bits = bits
                hit = live & alias_bits
                if hit:
                    defmap[node] = defmap.get(node, 0) | hit
                live &= ~kill_bits  # strong update: older values dead
                if live and node.store.source is not None:
                    work.append((node.store.source, call_stack, live))
            elif isinstance(node, MergeNode):
                for branch in node.branches:
                    if branch.source is not None:
                        work.append((branch.source, call_stack, live))
            elif isinstance(node, CallNode):
                # The store after a call comes from the callees'
                # returns.
                callees = self.result.callgraph.callees(node)
                if not callees and node.store.source is not None:
                    work.append((node.store.source, call_stack, live))
                    continue
                if not self.call_site_sensitive:
                    extended = call_stack  # stays ()
                elif node in call_stack:
                    extended = call_stack  # recursive cycle: merge
                else:
                    extended = call_stack + (node,)
                for callee in callees:
                    ret = callee.return_node
                    if ret is not None and ret.store.source is not None:
                        work.append((ret.store.source, extended, live))
            elif isinstance(node, PrimopNode):
                # Library calls modeled as the identity on stores: the
                # chain continues through the store operand.
                if node.semantics is not PrimopSemantics.COPY:
                    raise AnalysisError(
                        f"store chain reached unexpected primop {node!r}")
                index = node.copy_operand
                operand = node.operands[index if index is not None else 0]
                if operand.source is not None:
                    work.append((operand.source, call_stack, live))
            elif isinstance(node, EntryNode):
                graph = node.graph
                if call_stack:
                    # Resume at the call that entered this callee; a
                    # merged recursive context also continues at the
                    # same call's own store input (the outer entry).
                    call = call_stack[-1]
                    if call.store.source is not None:
                        work.append((call.store.source,
                                     call_stack[:-1], live))
                    continue
                # No known call context: all callers, or program start.
                callers = self.result.callgraph.callers(graph)
                if not callers or graph.name in self.program.roots:
                    defmap[INITIAL] = defmap.get(INITIAL, 0) | live
                for call in callers:
                    if call.store.source is not None:
                        work.append((call.store.source, (), live))
            else:
                raise AnalysisError(
                    f"store chain reached unexpected node {node!r}")
        return defmap

    def _update_bits(self, update: UpdateNode,
                     by_base: Dict[object, List[Tuple[int, AccessPath]]]
                     ) -> Tuple[int, int]:
        """(may-alias bits, strong-kill bits) of one update against a
        read footprint — interned-path comparisons, no decoding.  Both
        relations need a shared base, so each target meets only the
        footprint paths over its own base (``by_base``)."""
        targets = self.op_paths(update)
        alias_bits = 0
        for target in targets:
            for bit, location in by_base.get(target.base, ()):
                if MAY_ALIAS(target, location):
                    alias_bits |= bit
        kill_bits = 0
        if len(targets) == 1:
            strong = targets[0]
            for bit, location in by_base.get(strong.base, ()):
                if strong_dom(strong, location):
                    kill_bits |= bit
        return alias_bits, kill_bits


def function_op_masks(result: AnalysisResult
                      ) -> Dict[str, Tuple[int, int]]:
    """Per-function direct ``(ref_mask, mod_mask)`` over path ids.

    The decode-free accumulation both :mod:`clients/modref` and the
    dependence-graph stats start from: lookups OR into the ref mask,
    updates into the mod mask.
    """
    solution = result.solution
    masks: Dict[str, Tuple[int, int]] = {}
    for name, graph in result.program.functions.items():
        refs = 0
        mods = 0
        for node in graph.memory_operations():
            mask = solution.op_targets_mask(node)
            if isinstance(node, LookupNode):
                refs |= mask
            else:
                mods |= mask
        masks[name] = (refs, mods)
    return masks


class DependenceGraph:
    """An alias-aware program dependence graph (see module docstring).

    ``nodes`` maps the stable node key to ``(function, kind, origin)``;
    ``edges`` is a sorted tuple of ``(src_key, dst_key, edge_kind)``.
    Both orders — and therefore :meth:`digest` — depend only on the
    lowered program and the points-to solution, never on schedule,
    process, or cache state.
    """

    def __init__(self, result: AnalysisResult,
                 engine: ReachingDefs) -> None:
        self.result = result
        self.program = result.program
        self.flavor = result.flavor
        self.engine = engine
        self.nodes: Dict[str, Tuple[str, str, str]] = {}
        self._edges: Set[Tuple[str, str, str]] = set()
        self.edges: Tuple[Tuple[str, str, str], ...] = ()
        self._forward: Dict[str, List[Tuple[str, str]]] = {}
        self._backward: Dict[str, List[Tuple[str, str]]] = {}
        self._build()

    # -- construction --------------------------------------------------

    def _touch(self, node: Node) -> str:
        key = node_key(node)
        if key not in self.nodes:
            self.nodes[key] = (node.graph.name, node.kind,
                               node.origin or "")
        return key

    def _edge(self, src: Node, dst: Node, kind: str) -> None:
        self._edges.add((self._touch(src), self._touch(dst), kind))

    def _build(self) -> None:
        program = self.program
        callgraph = self.result.callgraph
        store_inputs = {"store"}
        for graph in program.functions.values():
            for node in graph.nodes:
                self._touch(node)
                # value edges: every operand that is not a store chain
                # (store flow is the mem-edge machinery) and not a
                # merge predicate (that is a control edge).
                pred = node.pred if isinstance(node, MergeNode) else None
                for port in node.inputs:
                    if port is pred or port.name in store_inputs:
                        continue
                    src = port.source
                    if src is None or src.tag is ValueTag.STORE:
                        continue
                    self._edge(src.node, node, "value")
                if isinstance(node, MergeNode) and node.pred is not None \
                        and node.pred.source is not None:
                    self._edge(node.pred.source.node, node, "control")
                if isinstance(node, CallNode):
                    for callee in callgraph.callees(node):
                        if callee.entry is not None:
                            self._edge(node, callee.entry, "call")
                        ret = callee.return_node
                        if ret is not None:
                            self._edge(ret, node, "call")
            # Predicate-less merges (loop headers, multi-merge joins):
            # conservatively control-dependent on every value recorded
            # as steering this function's control flow.
            orphans = [n for n in graph.nodes
                       if isinstance(n, MergeNode)
                       and (n.pred is None or n.pred.source is None)]
            if orphans:
                deciders = []
                seen: Set[int] = set()
                for use in graph.control_uses:
                    if id(use) not in seen:
                        seen.add(id(use))
                        deciders.append(use)
                for merge in orphans:
                    for use in deciders:
                        self._edge(use.node, merge, "control")
        # mem edges: alias-resolved reaching definitions per read.
        self.nodes.setdefault(INITIAL_KEY, ("", "initial", ""))
        for graph in program.functions.values():
            for node in graph.nodes:
                if not isinstance(node, LookupNode):
                    continue
                for definition in self.engine.reaching_definitions(node):
                    if definition is INITIAL:
                        self._edges.add((INITIAL_KEY, self._touch(node),
                                         "mem"))
                    else:
                        self._edge(definition, node, "mem")
        self.edges = tuple(sorted(self._edges))
        for src, dst, kind in self.edges:
            self._forward.setdefault(src, []).append((dst, kind))
            self._backward.setdefault(dst, []).append((src, kind))

    # -- queries -------------------------------------------------------

    def neighbours(self, key: str, direction: str
                   ) -> List[Tuple[str, str]]:
        """(neighbour key, edge kind) pairs; ``direction`` is
        ``"backward"`` (predecessors) or ``"forward"`` (successors)."""
        if direction == "backward":
            return self._backward.get(key, [])
        if direction == "forward":
            return self._forward.get(key, [])
        raise AnalysisError(
            f"unknown slice direction {direction!r}; "
            f"expected 'backward' or 'forward'")

    def stats(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in EDGE_KINDS}
        for _, _, kind in self.edges:
            counts[kind] += 1
        return {"nodes": len(self.nodes), "edges": len(self.edges),
                **{f"{kind}_edges": n for kind, n in counts.items()}}

    def digest(self) -> str:
        """Content hash of the graph — the cross-schedule/jobs/cache
        determinism gate, mirroring ``findings_digest``."""
        lines = [f"{key}|{fn}|{kind}|{origin}"
                 for key, (fn, kind, origin) in sorted(self.nodes.items())]
        lines += [f"{src}->{dst}:{kind}" for src, dst, kind in self.edges]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def build_depgraph(result: AnalysisResult,
                   max_visits: int = 1_000_000,
                   engine: Optional[ReachingDefs] = None
                   ) -> DependenceGraph:
    """Build the dependence graph for one solved analysis result."""
    if engine is None:
        engine = ReachingDefs(result, max_visits=max_visits,
                              call_site_sensitive=False)
    return DependenceGraph(result, engine)
