"""Weihl-style flow-insensitive baseline.

The paper's introduction recalls that the earliest pointer analyses
(Weihl 1980, Coutant 1986) were completely flow-insensitive, "building
a single, global mapping between pointers and their potential
referents", and that later work found the resulting approximations
overly large.  This module implements that historical baseline over the
same IR so the precision gap is measurable:

* there is **one program-wide store**: every update contributes to it
  and every lookup reads from it, with no kills (strong updates are
  meaningless without flow);
* value outputs keep per-output sets (the IR is still a dataflow
  graph), but store-typed outputs all denote the single global store.

The result plugs into the same statistics machinery as the other two
analyses; store outputs report the global map's contents, which is why
flow-insensitive totals balloon the way the paper describes.

Two schedules drive the same transfer functions:

* ``"batched"`` (default) — CI's dense engine with one global-store
  bitset ``G`` over the program's shared fact table.  Value roles
  (arguments and formals, returns, merges, primops, callee discovery)
  run CI's handlers.  A push to any store-typed output joins ``G``, so
  store inputs receive nothing; updates write their
  ``translate_writes`` images into ``G`` with no kills; lookups read
  ``G`` through ``translate_lookup``.  When ``G`` grows, every lookup
  that already has locations must see the new pairs: the delta
  collects in one pending mask, drained against all lookups whenever
  the worklist runs dry, so a cascade of store growth costs one pass
  over the lookups per round rather than one per new pair.
* ``"fifo"`` — the original object engine, one fact per pop, which
  re-fires every lookup as each global-store pair arrives; kept as the
  reference implementation.
"""

from __future__ import annotations

import time
from typing import Set

from ..errors import AnalysisError
from ..memory.access import EMPTY_OFFSET, INDEX, AccessPath
from ..memory.facttable import FactTable
from ..memory.pairs import PointsToPair, direct, pair as make_pair
from ..memory.relations import dom
from ..ir.graph import Program
from ..ir.nodes import (
    CallNode,
    InputPort,
    LookupNode,
    MergeNode,
    Node,
    OutputPort,
    PrimopNode,
    PrimopSemantics,
    ReturnNode,
    UpdateNode,
    ValueTag,
)
from .common import AnalysisResult, resolve_function_value
from .insensitive import (
    InsensitiveAnalysis,
    MaskHandler,
    _consume,
    _make_handler,
)


class FlowInsensitiveAnalysis(InsensitiveAnalysis):
    """One run of the program-wide baseline."""

    def __init__(self, program: Program, schedule: str = "batched") -> None:
        super().__init__(program, schedule)
        #: The single global store (fifo): set of (location, referent).
        self.global_store: Set[PointsToPair] = set()
        #: The single global store (batched), as a bitset: ``G``.
        self.global_mask = 0
        #: ``G``'s growth not yet shown to the lookups.
        self._unseen = 0
        #: All lookups, re-fired whenever the global store grows.
        self._lookups = [
            node for g in program.functions.values()
            for node in g.nodes if isinstance(node, LookupNode)]

    def run(self) -> AnalysisResult:
        table = self.table
        decode_calls_before = table.decode_calls
        kernel_calls_before = table.kernel_calls
        started = time.perf_counter()
        if self._dense:
            self._run_global()
            store_pairs = self.global_mask.bit_count()
        else:
            self._run_objects()
            store_pairs = len(self.global_store)
        elapsed = time.perf_counter() - started
        return AnalysisResult(
            program=self.program,
            solution=self.solution,
            callgraph=self.callgraph,
            counters=self.counters,
            elapsed_seconds=elapsed,
            flavor="flowinsensitive",
            extras={"phases": {"solve": elapsed},
                    "global_store_pairs": store_pairs,
                    "dense": {
                        "fact_ids": table.pair_count(),
                        "bitset_words": self.solution.bitset_words(),
                        "kernel_calls": table.kernel_calls
                        - kernel_calls_before,
                        "decode_calls": table.decode_calls
                        - decode_calls_before,
                    }},
        )

    def _store_outputs(self):
        for graph in self.program.functions.values():
            for output in graph.outputs():
                if output.tag is ValueTag.STORE:
                    yield output

    # -- the mask engine (batched) -----------------------------------------

    def _run_global(self) -> None:
        program = self.program
        pair_id = self.table.pair_id
        for node in program.address_nodes():
            self.flow_out_mask(node.out, 1 << pair_id(direct(node.path)))
        self._join_global(self.table.pair_mask(program.initial_store))
        for output, pair in program.seeded_values:
            self.flow_out_mask(output, 1 << pair_id(pair))
        self._drain()
        while self._unseen:
            self._refire_lookups()
            self._drain()
        # Every store-typed output denotes G, so the census machinery
        # sees what a client would see.
        if self.global_mask:
            masks = self.solution._masks
            for output in self._store_outputs():
                masks[output] = self.global_mask

    def flow_out_mask(self, output: OutputPort, mask: int,
                      meets: int = -1) -> None:
        """CI's dense flow-out, except that a store-typed output joins
        ``G``.  ``meets`` overrides the default one meet per fact when
        the caller counted its attempted joins itself."""
        if not mask:
            return
        counters = self.counters
        counters.meets += mask.bit_count() if meets < 0 else meets
        if output.tag is ValueTag.STORE:
            self._join_global(mask)
            return
        masks = self.solution._masks
        old = masks.get(output, 0)
        new = mask & ~old
        if not new:
            return
        masks[output] = old | new
        counters.pairs_added += new.bit_count()
        push_mask = self.worklist.push_mask
        for consumer in output.consumers:
            push_mask(consumer, new)

    def _join_global(self, mask: int) -> None:
        new = mask & ~self.global_mask
        if new:
            self.global_mask |= new
            self.counters.pairs_added += new.bit_count()
            self._unseen |= new

    def _lookup_global(self, node: LookupNode, loc_mask: int,
                       store: int) -> None:
        """Dereference the locations in ``loc_mask`` against the store
        pairs in ``store``: one meet per (location, dominated pair)."""
        table = self.table
        emit = meets = 0
        for r_l in table.direct_referents(loc_mask):
            candidates = store & table.base_mask(r_l.base)
            if candidates:
                part = table.translate_lookup(r_l, candidates)
                emit |= part
                meets += part.bit_count()
        self.flow_out_mask(node.out, emit, meets)

    def _refire_lookups(self) -> None:
        """Show ``G``'s unseen growth to every lookup with locations."""
        delta, self._unseen = self._unseen, 0
        masks = self.solution._masks
        for node in self._lookups:
            source = node.loc.source
            loc_mask = masks.get(source, 0) if source is not None else 0
            if loc_mask:
                self._lookup_global(node, loc_mask, delta)

    def _discover_callee(self, node: CallNode, fact: PointsToPair) -> None:
        """A new callee receives the known actuals and returns its
        known value; stores need no plumbing (there is one)."""
        if fact.path is not EMPTY_OFFSET:
            return
        callee = resolve_function_value(self.program, fact.referent)
        if callee is None:
            self.callgraph.unresolved.add(node)
            return
        if not self.callgraph.add_edge(node, callee):
            return
        for index, arg in enumerate(node.args):
            formal = callee.corresponding_formal(index)
            if formal is not None:
                self.flow_out_mask(formal, self._mask(arg))
        ret = callee.return_node
        if ret is not None and ret.value is not None:
            self.flow_out_mask(node.out, self._mask(ret.value))

    def _make_port_handler(self, node: Node, role: str,
                           index: int) -> MaskHandler:
        return _make_global_handler(node, role, index, self.table)

    # -- the object engine (fifo) ------------------------------------------

    def _run_objects(self) -> None:
        for node in self.program.address_nodes():
            self.flow_out(node.out, direct(node.path))
        for pair in self.program.initial_store:
            self._add_store_pair(pair)
        for output, pair in self.program.seeded_values:
            self.flow_out(output, pair)
        while self.worklist:
            input_port, fact = self.worklist.pop()
            self.counters.transfers += 1
            self.counters.batches += 1
            self.flow_in(input_port, fact)
        for output in self._store_outputs():
            for pair in self.global_store:
                self.solution.add(output, pair)

    def flow_out(self, output: OutputPort, pair: PointsToPair) -> None:
        self.counters.meets += 1
        if output.tag is ValueTag.STORE:
            self._add_store_pair(pair)
            return
        if not self.solution.add(output, pair):
            return
        self.counters.pairs_added += 1
        for consumer in output.consumers:
            self.worklist.push(consumer, pair)

    def _add_store_pair(self, pair: PointsToPair) -> None:
        if pair in self.global_store:
            return
        self.global_store.add(pair)
        self.counters.pairs_added += 1
        # Every lookup in the program may now observe this pair.
        for node in self._lookups:
            for lp in list(self._value_pairs(node.loc)):
                if lp.path is not EMPTY_OFFSET:
                    continue
                if dom(lp.referent, pair.path):
                    self.flow_out(node.out,
                                  make_pair(pair.path.subtract(lp.referent),
                                            pair.referent))

    def _value_pairs(self, input_port: InputPort):
        if input_port.source is None:
            return ()
        return self.solution.raw_pairs(input_port.source)

    def flow_in(self, input_port: InputPort, fact: PointsToPair) -> None:
        node = input_port.node
        if isinstance(node, LookupNode):
            if input_port is node.loc and fact.path is EMPTY_OFFSET:
                for sp in list(self.global_store):
                    if dom(fact.referent, sp.path):
                        self.flow_out(node.out,
                                      make_pair(sp.path.subtract(fact.referent),
                                                sp.referent))
            return  # store input carries no per-edge facts here
        if isinstance(node, UpdateNode):
            if input_port is node.loc and fact.path is EMPTY_OFFSET:
                for vp in list(self._value_pairs(node.value)):
                    self._add_store_pair(
                        make_pair(fact.referent.append(vp.path), vp.referent))
            elif input_port is node.value:
                for lp in list(self._value_pairs(node.loc)):
                    if lp.path is EMPTY_OFFSET:
                        self._add_store_pair(
                            make_pair(lp.referent.append(fact.path),
                                      fact.referent))
            return
        if isinstance(node, CallNode):
            self._flow_call(node, input_port, fact)
            return
        if isinstance(node, ReturnNode):
            if input_port is node.value:
                for call in self.callgraph.callers(node.graph):
                    self.flow_out(call.out, fact)
            return
        if isinstance(node, MergeNode):
            if input_port is not node.pred and \
                    node.out.tag is not ValueTag.STORE:
                self.flow_out(node.out, fact)
            return
        if isinstance(node, PrimopNode):
            self._flow_primop(node, input_port, fact)
            return
        raise AnalysisError(f"pair arrived at unexpected node {node!r}")

    def _flow_call(self, node: CallNode, input_port: InputPort,
                   fact: PointsToPair) -> None:
        if input_port is node.fcn:
            if fact.path is not EMPTY_OFFSET:
                return
            callee = resolve_function_value(self.program, fact.referent)
            if callee is None:
                self.callgraph.unresolved.add(node)
                return
            if not self.callgraph.add_edge(node, callee):
                return
            for index, arg in enumerate(node.args):
                formal = callee.corresponding_formal(index)
                if formal is None or arg.source is None:
                    continue
                for pair in list(self.solution.raw_pairs(arg.source)):
                    self.flow_out(formal, pair)
            ret = callee.return_node
            if ret is not None and ret.value is not None \
                    and ret.value.source is not None:
                for pair in list(self.solution.raw_pairs(ret.value.source)):
                    self.flow_out(node.out, pair)
            return
        if input_port is node.store:
            return
        for index, arg in enumerate(node.args):
            if input_port is arg:
                for callee in self.callgraph.callees(node):
                    formal = callee.corresponding_formal(index)
                    if formal is not None:
                        self.flow_out(formal, fact)
                return

    def _flow_primop(self, node: PrimopNode, input_port: InputPort,
                     fact: PointsToPair) -> None:
        semantics = node.semantics
        if semantics is PrimopSemantics.OPAQUE:
            return
        if semantics is PrimopSemantics.COPY:
            if node.copy_operand is not None and \
                    input_port is not node.operands[node.copy_operand]:
                return
            self.flow_out(node.out, fact)
            return
        if semantics is PrimopSemantics.EXTRACT:
            path = fact.path
            if path.base is None and path.ops and path.ops[0] is node.field_op:
                self.flow_out(node.out,
                              make_pair(AccessPath(None, path.ops[1:]),
                                        fact.referent))
            return
        if fact.path is not EMPTY_OFFSET:
            return
        if semantics is PrimopSemantics.FIELD:
            self.flow_out(node.out, direct(fact.referent.extend(node.field_op)))
        elif semantics is PrimopSemantics.INDEX:
            self.flow_out(node.out, direct(fact.referent.extend(INDEX)))


def _make_global_handler(node: Node, role: str, index: int,
                         table: FactTable) -> MaskHandler:
    """The batched FI handler for one ``(node, role)`` port: the
    memory roles against ``G``, CI's handlers for everything else."""
    if role in ("lookup.store", "update.store", "call.store",
                "return.store"):
        return _consume  # store inputs receive nothing: stores are G

    if role == "lookup.loc":
        def handler(eng, mask: int) -> None:
            if eng.global_mask:
                eng._lookup_global(node, mask, eng.global_mask)
        return handler

    if role in ("update.loc", "update.value"):
        new_locs = role == "update.loc"
        other_src = node.value.source if new_locs else node.loc.source
        translate_writes = table.translate_writes
        direct_referents = table.direct_referents

        def handler(eng, mask: int) -> None:
            other = eng.solution._masks.get(other_src, 0)
            locs, values = (mask, other) if new_locs else (other, mask)
            if not locs or not values:
                return
            written = 0
            for r_l in direct_referents(locs):
                written |= translate_writes(r_l, values)
            eng._join_global(written)
        return handler

    return _make_handler(node, role, index, table)


def analyze_flowinsensitive(program: Program,
                            schedule: str = "batched") -> AnalysisResult:
    """Run the Weihl-style program-wide baseline."""
    return FlowInsensitiveAnalysis(program, schedule=schedule).run()
