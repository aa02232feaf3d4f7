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
"""

from __future__ import annotations

import time
from typing import Dict, List, Set

from ..errors import AnalysisError
from ..memory.access import EMPTY_OFFSET, INDEX, AccessPath
from ..memory.pairs import PointsToPair, direct, pair as make_pair
from ..memory.relations import dom
from ..ir.graph import Program
from ..ir.nodes import (
    CallNode,
    InputPort,
    LookupNode,
    MergeNode,
    OutputPort,
    PrimopNode,
    PrimopSemantics,
    ReturnNode,
    UpdateNode,
    ValueTag,
)
from .common import (
    AnalysisResult,
    BatchedWorklist,
    CallGraph,
    Counters,
    PointsToSolution,
    Worklist,
    check_schedule,
    resolve_function_value,
)
from ..memory.facttable import FactTable


class FlowInsensitiveAnalysis:
    """One run of the program-wide baseline.

    The batched schedule drains each dirty port in one pop but keeps
    per-fact transfer functions: the global store's re-fire cascade
    (``_add_store_pair`` recursing through ``flow_out``) leaves no
    batch-level set algebra to exploit in this baseline.
    """

    def __init__(self, program: Program, schedule: str = "batched") -> None:
        self.program = program
        self.schedule = check_schedule(schedule)
        self.solution = PointsToSolution(FactTable.for_program(program))
        self.callgraph = CallGraph()
        self.counters = Counters()
        self.worklist: object = (BatchedWorklist()
                                 if self.schedule == "batched"
                                 else Worklist())
        #: The single global store: set of (location path, referent).
        self.global_store: Set[PointsToPair] = set()
        #: All lookups, re-fired whenever the global store grows.
        self._lookups: List[LookupNode] = [
            node for g in program.functions.values()
            for node in g.nodes if isinstance(node, LookupNode)]

    def run(self) -> AnalysisResult:
        started = time.perf_counter()
        for node in self.program.address_nodes():
            self.flow_out(node.out, direct(node.path))
        for pair in self.program.initial_store:
            self._add_store_pair(pair)
        for output, pair in self.program.seeded_values:
            self.flow_out(output, pair)
        if self.schedule == "batched":
            while self.worklist:
                input_port, facts = self.worklist.pop()
                self.counters.batches += 1
                self.counters.transfers += len(facts)
                for fact in facts:
                    self.flow_in(input_port, fact)
        else:
            while self.worklist:
                input_port, fact = self.worklist.pop()
                self.counters.transfers += 1
                self.counters.batches += 1
                self.flow_in(input_port, fact)
        # Materialize the global store onto every store-typed output so
        # the census machinery sees what a client would see.
        for graph in self.program.functions.values():
            for output in graph.outputs():
                if output.tag is ValueTag.STORE:
                    for pair in self.global_store:
                        self.solution.add(output, pair)
        elapsed = time.perf_counter() - started
        return AnalysisResult(
            program=self.program,
            solution=self.solution,
            callgraph=self.callgraph,
            counters=self.counters,
            elapsed_seconds=elapsed,
            flavor="flowinsensitive",
            extras={"phases": {"solve": elapsed},
                    "global_store_pairs": len(self.global_store)},
        )

    # -- propagation -------------------------------------------------------

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

    # -- transfer functions ----------------------------------------------------

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


def analyze_flowinsensitive(program: Program,
                            schedule: str = "batched") -> AnalysisResult:
    """Run the Weihl-style program-wide baseline."""
    return FlowInsensitiveAnalysis(program, schedule=schedule).run()
