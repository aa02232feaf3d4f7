"""Maximally context-sensitive points-to analysis — the paper's Figure 5.

The goal (Section 4.1) is not a practical compromise but an empirical
*upper bound* on the precision of alias analysis in the points-to
framework: assumption-set-based contexts with no limit on assumption
set size, at a willingly exponential cost.

The algorithm is Figure 1 altered to propagate *qualified* points-to
pairs.  Assumptions are introduced and removed at procedure calls and
returns: when a pair ``p`` arrives at an actual, the corresponding
formal ``f`` of each callee receives ``p`` qualified by ``{(f, p)}``;
when a qualified pair reaches a return node, its assumptions are
checked against the pairs holding at each call site and it is
propagated only to satisfying callers, re-qualified by the Cartesian
product of the satisfying actual pairs' assumption sets
(``propagate-return``).  Lookups and updates chain assumptions (the
output pair may require multiple input pairs), and strong updates
qualify each surviving store pair with the non-overwriting location
pair that lets it survive.

Function values are handled context-insensitively, as in the paper
("we have not yet implemented this feature... our function pointer
results are context-insensitive"): the call graph is taken from a
prior context-insensitive run.

Section 4.2's optimizations, on by default and individually toggleable:

* the subsumption rule (inside :class:`QualifiedSolution`);
* no location assumptions at indirect operations the CI analysis
  proved single-target (87% of indirect ops in the paper's suite);
* store pairs the CI analysis proves unmodified by an update pass
  through without acquiring location assumptions.

Like the CI analysis, the solver accepts two schedules:

* ``"batched"`` (default) — the **lane engine**.  Facts whose
  assumption set is empty (*unconditional* facts: most of them, since
  root procedures assume nothing and §4.2 drops location assumptions
  at CI-proven single-target operations) travel in a per-output bitset
  lane over the program's shared
  :class:`~repro.memory.facttable.FactTable` and are transformed by
  CI's translation kernels: lookups by ``translate_lookup`` over base
  slices, writes by ``translate_writes``, strong-update survival by
  ``kill_mask``, merges, copies and returns by OR.  Only facts that
  carry assumptions take the per-fact antichain path, and so do the
  cross terms between the two (a lane batch meeting conditional
  partners, or a conditional fact meeting a partner lane, of which
  only the kernel's image is decoded).  Calls are the one place a
  lane itself is decoded: each actual pair enters a callee formal
  qualified by ``{(formal, pair)}``.
* ``"fifo"`` — the original one-fact queue over qualified pairs, kept
  as the reference implementation.

Both count one ``meets`` per attempted join, as Figure 5 does: a lane
kernel's image is counted per fact it produces, per location.  Because
subsumption makes the amount of work order-dependent, the CS counters
vary between schedules; the *stripped* solution does not.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import AnalysisError
from ..memory.access import EMPTY_OFFSET, INDEX, AccessPath
from ..memory.facttable import FactTable
from ..memory.pairs import direct, pair as make_pair
from ..memory.relations import dom, strong_dom
from ..ir.graph import FunctionGraph, Program
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
    input_roles,
)
from .common import (
    AnalysisResult,
    CallGraph,
    Counters,
    LaneWorklist,
    Worklist,
    check_schedule,
)
from .insensitive import analyze_insensitive, seed_plan
from .qualified import (
    EMPTY_ASSUMPTIONS,
    Assumption,
    AssumptionSet,
    QualifiedPair,
    QualifiedSolution,
)

#: A lane-engine handler consumes one port's pending facts:
#: ``handler(engine, lane, conditional)`` with the unconditional facts
#: as a bitset and the facts that carry assumptions as a list.
LaneHandler = Callable[["SensitiveAnalysis", int, List[QualifiedPair]], None]


class PruneInfo:
    """What the CI result licenses the CS analysis to skip (§4.2)."""

    def __init__(self, ci_result: AnalysisResult, enabled: bool = True) -> None:
        self.enabled = enabled
        self.table: FactTable = ci_result.solution.table
        #: Memory operations whose location input resolves to exactly
        #: one location context-insensitively: the same location is
        #: referenced under all calling contexts (footnote 8's standard
        #: assumptions), so no assumptions about the location are needed.
        self.single_location_ops: Set[object] = set()
        #: Upper bound on the locations each update may modify.
        self.modified_bound: Dict[UpdateNode, FrozenSet[AccessPath]] = {}
        if not enabled:
            return
        for graph in ci_result.program.functions.values():
            for node in graph.memory_operations():
                locs = ci_result.solution.op_locations(node)
                if len(locs) == 1:
                    self.single_location_ops.add(node)
                if isinstance(node, UpdateNode):
                    self.modified_bound[node] = frozenset(locs)

    def is_single_location(self, node) -> bool:
        return self.enabled and node in self.single_location_ops

    def cannot_modify(self, node: UpdateNode, path: AccessPath) -> bool:
        """True when the CI bound proves ``node`` never writes ``path``,
        so a store pair at ``path`` passes through unqualified.

        Footnote 8's caveat applies: when the CI location set is empty
        the node never executes with a valid pointer, and the analyses'
        blocking semantics (store pairs delayed until a location
        arrives) must be preserved — so an empty bound disables the
        optimization rather than licensing a bypass.
        """
        if not self.enabled:
            return False
        bound = self.modified_bound.get(node)
        if not bound:
            return False
        return not any(dom(loc, path) for loc in bound)

    def cannot_modify_mask(self, node: UpdateNode, mask: int) -> int:
        """:meth:`cannot_modify` over a bitset of store facts: the
        facts no location of the CI bound dominates.  ``kill_mask``
        classifies by prefix, so it serves as the dominance test; a
        bare location dominates its whole base slice."""
        if not self.enabled or not mask:
            return 0
        bound = self.modified_bound.get(node)
        if not bound:
            return 0
        table = self.table
        dominated = 0
        for loc in bound:
            same_base = mask & table.base_mask(loc.base)
            if same_base:
                dominated |= (table.kill_mask(loc, same_base) if loc.ops
                              else same_base)
        return mask & ~dominated


class SensitiveAnalysis:
    """One run of the context-sensitive analysis over a program."""

    def __init__(self, program: Program,
                 ci_result: Optional[AnalysisResult] = None,
                 optimize: bool = True,
                 max_transfers: Optional[int] = None,
                 schedule: str = "batched") -> None:
        self.program = program
        if ci_result is None:
            ci_result = analyze_insensitive(program)
        elif ci_result.program is not program:
            raise AnalysisError("CI result belongs to a different program")
        self.ci_result = ci_result
        self.prune = PruneInfo(ci_result, enabled=optimize)
        self.table = ci_result.solution.table
        self.solution = QualifiedSolution(self.table)
        #: The call graph is fixed from the CI pass (function values are
        #: context-insensitive in the paper's implementation too).
        self.callgraph = ci_result.callgraph
        self.counters = Counters()
        self.schedule = check_schedule(schedule)
        #: Whether unconditional facts travel in lanes (batched).
        self._lanes = self.schedule == "batched"
        self.worklist: object = (LaneWorklist() if self._lanes
                                 else Worklist())
        self.max_transfers = max_transfers

    # -- driver -------------------------------------------------------------

    def run(self) -> AnalysisResult:
        table = self.table
        decode_calls_before = table.decode_calls
        kernel_calls_before = table.kernel_calls
        started = time.perf_counter()
        if self._lanes:
            self._run_lanes()
        else:
            self._run_fifo()
        elapsed = time.perf_counter() - started
        stripped = self.solution.strip()
        return AnalysisResult(
            program=self.program,
            solution=stripped,
            callgraph=self.callgraph,
            counters=self.counters,
            elapsed_seconds=elapsed,
            flavor="sensitive",
            extras={
                "phases": {"solve": elapsed},
                "qualified": self.solution,
                "ci_result": self.ci_result,
                "qualified_pair_count": self.solution.total_qualified_pairs(),
                "max_assumption_set_size":
                    self.solution.max_assumption_set_size(),
                "dense": {
                    "fact_ids": table.pair_count(),
                    "bitset_words": stripped.bitset_words(),
                    "kernel_calls": table.kernel_calls
                    - kernel_calls_before,
                    "decode_calls": table.decode_calls
                    - decode_calls_before,
                },
            },
        )

    def _budget_error(self) -> AnalysisError:
        return AnalysisError(
            f"context-sensitive analysis exceeded "
            f"{self.max_transfers} transfer functions")

    def _run_fifo(self) -> None:
        self._seed()
        while self.worklist:
            input_port, fact = self.worklist.pop()
            self.counters.transfers += 1
            self.counters.batches += 1
            if (self.max_transfers is not None
                    and self.counters.transfers > self.max_transfers):
                raise self._budget_error()
            self.flow_in(input_port, fact)

    def _run_lanes(self) -> None:
        entries, extra = seed_plan(self.program, self.table)
        for output, mask in entries:
            self.lane_out(output, mask)
        self.counters.meets += extra
        # Bound for this run only (see FlowInsensitiveAnalysis).
        dispatch: Dict[InputPort, LaneHandler] = {}
        worklist = self.worklist
        pop = worklist.pop
        counters = self.counters
        max_transfers = self.max_transfers
        while worklist:
            input_port, lane, cond = pop()
            counters.batches += 1
            counters.transfers += lane.bit_count() + len(cond)
            if (max_transfers is not None
                    and counters.transfers > max_transfers):
                raise self._budget_error()
            handler = dispatch.get(input_port)
            if handler is None:
                handler = self._bind_node(dispatch, input_port)
            handler(self, lane, cond)

    def _seed(self) -> None:
        for node in self.program.address_nodes():
            self.flow_out(node.out, QualifiedPair(direct(node.path)))
        for graph in self.program.root_graphs():
            for pair in self.program.initial_store:
                self.flow_out(graph.store_formal, QualifiedPair(pair))
        for output, pair in self.program.seeded_values:
            self.flow_out(output, QualifiedPair(pair))

    # -- propagation -----------------------------------------------------------

    def flow_out(self, output: OutputPort, qp: QualifiedPair) -> None:
        if self._lanes and not qp.assumptions:
            self.lane_out(output, 1 << self.table.pair_id(qp.pair))
            return
        self.counters.meets += 1
        if not self.solution.add(output, qp):
            return
        self.counters.pairs_added += 1
        for consumer in output.consumers:
            self.worklist.push(consumer, qp)

    def lane_out(self, output: OutputPort, mask: int) -> None:
        """Join unconditional facts into the output's lane: one meet
        per fact, and each consumer notified once with the delta."""
        if not mask:
            return
        counters = self.counters
        counters.meets += mask.bit_count()
        new = self.solution.join_lane(output, mask)
        if not new:
            return
        counters.pairs_added += new.bit_count()
        push_mask = self.worklist.push_mask
        for consumer in output.consumers:
            push_mask(consumer, new)

    def _emit_mask(self, output: OutputPort, mask: int,
                   a_l: AssumptionSet) -> None:
        """Emit a kernel image under assumptions ``a_l``: into the lane
        when there are none, else decoded fact by fact."""
        if not mask:
            return
        if not a_l:
            self.lane_out(output, mask)
            return
        for pair in self.table.decode_pairs(mask):
            self.flow_out(output, QualifiedPair(pair, a_l))

    def _qpairs(self, input_port: Optional[InputPort]) -> List[QualifiedPair]:
        if input_port is None or input_port.source is None:
            return []
        return list(self.solution.qualified_pairs(input_port.source))

    def _chain_qpairs(self, input_port: Optional[InputPort]
                      ) -> List[QualifiedPair]:
        """The antichain-held facts feeding ``input_port`` (every fact
        under fifo; only those with assumptions beside a lane)."""
        if input_port is None or input_port.source is None:
            return []
        return self.solution.chain_pairs(input_port.source)

    # -- lane dispatch -------------------------------------------------------

    def _bind_node(self, dispatch: Dict[InputPort, LaneHandler],
                   input_port: InputPort) -> LaneHandler:
        """Bind lane handlers for one node, on the first fact to reach
        it (lazily, as the CI analysis does)."""
        node = input_port.node
        for port, role, index in input_roles(node):
            dispatch[port] = _make_lane_handler(node, role, index,
                                                self.table)
        handler = dispatch.get(input_port)
        if handler is None:
            raise AnalysisError(
                f"qualified pair at unexpected node {node!r}")
        return handler

    # -- lane transfer functions ---------------------------------------------
    #
    # Each takes one location (ε, r_l) with its (already pruned)
    # assumptions a_l, and the partner input as a lane bitset plus
    # conditional facts.  Lane x lane runs on CI's kernels; anything
    # involving assumptions is per fact.

    def _lookup_into(self, out: OutputPort, r_l: AccessPath,
                     a_l: AssumptionSet, lane: int,
                     cond: List[QualifiedPair]) -> None:
        if lane:
            candidates = lane & self.table.base_mask(r_l.base)
            if candidates:
                self._emit_mask(out, self.table.translate_lookup(
                    r_l, candidates), a_l)
        for sq in cond:
            path = sq.pair.path
            if dom(r_l, path):
                self.flow_out(out, QualifiedPair(
                    make_pair(path.subtract(r_l), sq.pair.referent),
                    a_l | sq.assumptions))

    def _write_into(self, node: UpdateNode, r_l: AccessPath,
                    a_l: AssumptionSet, lane: int,
                    cond: List[QualifiedPair]) -> None:
        ostore = node.ostore
        if lane:
            self._emit_mask(ostore, self.table.translate_writes(r_l, lane),
                            a_l)
        for vq in cond:
            self.flow_out(ostore, QualifiedPair(
                make_pair(r_l.append(vq.pair.path), vq.pair.referent),
                a_l | vq.assumptions))

    def _lane_killed(self, r_l: AccessPath, mask: int) -> int:
        """The store facts in ``mask`` that location ``r_l`` strongly
        updates (``strong_dom``): a bare strongly-updateable location
        kills its whole base slice, a longer one what it prefixes."""
        if not r_l.strongly_updateable:
            return 0
        same_base = mask & self.table.base_mask(r_l.base)
        if not same_base or not r_l.ops:
            return same_base
        return self.table.kill_mask(r_l, same_base)

    def _survive_lane(self, node: UpdateNode, r_l: AccessPath,
                      a_l: AssumptionSet, lane: int,
                      pass_through: int) -> None:
        """:meth:`_update_survive` for a lane of store facts, whose
        ``pass_through`` part CI proves unmodified (and has already
        been emitted)."""
        rest = lane & ~pass_through
        if rest:
            self._emit_mask(node.ostore,
                            rest & ~self._lane_killed(r_l, rest), a_l)

    def _locations(self, node: Node, lane: int,
                   cond: List[QualifiedPair]
                   ) -> List[Tuple[AccessPath, AssumptionSet]]:
        """The location facts among a lane and conditional facts, as
        ``(r_l, a_l)``: lane referents assume nothing, and a conditional
        direct fact keeps its assumptions unless §4.2 drops them."""
        locs = [(r_l, EMPTY_ASSUMPTIONS)
                for r_l in self.table.direct_referents(lane)] if lane else []
        for lq in cond:
            if lq.pair.path is EMPTY_OFFSET:
                locs.append((lq.pair.referent,
                             self._loc_assumptions(node, lq.assumptions)))
        return locs

    def _partner(self, source: Optional[OutputPort]):
        """A partner input's facts: its lane and its conditional
        facts."""
        if source is None:
            return 0, []
        return (self.solution.lane_mask(source),
                self.solution.chain_pairs(source))

    # -- transfer functions (flow-in, Figure 5) -----------------------------------

    def flow_in(self, input_port: InputPort, qp: QualifiedPair) -> None:
        node = input_port.node
        if isinstance(node, LookupNode):
            self._flow_lookup(node, input_port, qp)
        elif isinstance(node, UpdateNode):
            self._flow_update(node, input_port, qp)
        elif isinstance(node, CallNode):
            self._flow_call(node, input_port, qp)
        elif isinstance(node, ReturnNode):
            self._flow_return(node, input_port, qp)
        elif isinstance(node, MergeNode):
            if input_port is not node.pred:
                self.flow_out(node.out, qp)
        elif isinstance(node, PrimopNode):
            self._flow_primop(node, input_port, qp)
        else:
            raise AnalysisError(f"qualified pair at unexpected node {node!r}")

    # .. lookup ..................................................................

    def _loc_assumptions(self, node, a_l: AssumptionSet) -> AssumptionSet:
        """Optimization 1 of §4.2: drop location assumptions at
        CI-proven single-target operations."""
        if self.prune.is_single_location(node):
            return EMPTY_ASSUMPTIONS
        return a_l

    def _flow_lookup(self, node: LookupNode, input_port: InputPort,
                     qp: QualifiedPair) -> None:
        if input_port is node.loc:
            self._lookup_loc(node, qp)
        elif input_port is node.store:
            self._lookup_store(node, qp)
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown lookup input {input_port!r}")

    def _lookup_loc(self, node: LookupNode, qp: QualifiedPair) -> None:
        if qp.pair.path is not EMPTY_OFFSET:
            return
        r_l = qp.pair.referent
        a_l = self._loc_assumptions(node, qp.assumptions)
        for sp in self._qpairs(node.store):
            if dom(r_l, sp.pair.path):
                self.flow_out(node.out, QualifiedPair(
                    make_pair(sp.pair.path.subtract(r_l), sp.pair.referent),
                    a_l | sp.assumptions))

    def _lookup_store(self, node: LookupNode, qp: QualifiedPair) -> None:
        for lp in self._qpairs(node.loc):
            if lp.pair.path is not EMPTY_OFFSET:
                continue
            r_l = lp.pair.referent
            if dom(r_l, qp.pair.path):
                a_l = self._loc_assumptions(node, lp.assumptions)
                self.flow_out(node.out, QualifiedPair(
                    make_pair(qp.pair.path.subtract(r_l), qp.pair.referent),
                    a_l | qp.assumptions))

    # .. update ..................................................................

    def _flow_update(self, node: UpdateNode, input_port: InputPort,
                     qp: QualifiedPair) -> None:
        if input_port is node.loc:
            self._update_loc(node, qp)
        elif input_port is node.store:
            self._update_store(node, qp)
        elif input_port is node.value:
            self._update_value(node, qp)
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown update input {input_port!r}")

    def _update_loc(self, node: UpdateNode, qp: QualifiedPair) -> None:
        if qp.pair.path is not EMPTY_OFFSET:
            return
        r_l = qp.pair.referent
        a_l = self._loc_assumptions(node, qp.assumptions)
        for vp in self._qpairs(node.value):
            self.flow_out(node.ostore, QualifiedPair(
                make_pair(r_l.append(vp.pair.path), vp.pair.referent),
                a_l | vp.assumptions))
        for sp in self._qpairs(node.store):
            self._update_survive(node, qp, sp)

    def _update_store(self, node: UpdateNode, qp: QualifiedPair) -> None:
        loc_pairs = [lp for lp in self._qpairs(node.loc)
                     if lp.pair.path is EMPTY_OFFSET]
        if self.prune.cannot_modify(node, qp.pair.path):
            # Optimization 2 of §4.2: CI proves this update never
            # writes the pair's path; pass it through unqualified.
            # The CWZ90 delay still applies: nothing flows until a
            # location pair has arrived (the loc-arrival rescan
            # releases delayed pairs), so the optimization cannot
            # change the solution, only the amount of work.
            if loc_pairs:
                self.flow_out(node.ostore, qp)
            return
        for lp in loc_pairs:
            self._update_survive(node, lp, qp)

    def _update_value(self, node: UpdateNode, qp: QualifiedPair) -> None:
        for lp in self._qpairs(node.loc):
            if lp.pair.path is not EMPTY_OFFSET:
                continue
            a_l = self._loc_assumptions(node, lp.assumptions)
            self.flow_out(node.ostore, QualifiedPair(
                make_pair(lp.pair.referent.append(qp.pair.path),
                          qp.pair.referent),
                a_l | qp.assumptions))

    def _update_survive(self, node: UpdateNode, lp: QualifiedPair,
                        sp: QualifiedPair) -> None:
        """Strong updates under context-sensitivity: a surviving store
        pair must be qualified by each non-overwriting location pair —
        "we must enumerate all of the ways in which the input pair
        could fail to be overwritten" (§4.1)."""
        if self.prune.cannot_modify(node, sp.pair.path):
            self.flow_out(node.ostore, sp)
            return
        if strong_dom(lp.pair.referent, sp.pair.path):
            return
        a_l = self._loc_assumptions(node, lp.assumptions)
        self.flow_out(node.ostore,
                      QualifiedPair(sp.pair, a_l | sp.assumptions))

    # .. calls and returns ...........................................................

    def _flow_call(self, node: CallNode, input_port: InputPort,
                   qp: QualifiedPair) -> None:
        if input_port is node.fcn:
            return  # call graph is fixed from the CI pass
        if input_port is node.store:
            self._call_store(node, qp)
            return
        for index, arg in enumerate(node.args):
            if input_port is arg:
                self._call_arg(node, index, qp)
                return
        raise AnalysisError(f"unknown call input {input_port!r}")

    def _call_store(self, node: CallNode, qp: QualifiedPair) -> None:
        for callee in self.callgraph.callees(node):
            self._into_formal(node, callee, callee.store_formal, qp)

    def _call_arg(self, node: CallNode, index: int, qp: QualifiedPair) -> None:
        for callee in self.callgraph.callees(node):
            formal = callee.corresponding_formal(index)
            if formal is not None:
                self._into_formal(node, callee, formal, qp)

    def _into_formal(self, call: CallNode, callee: FunctionGraph,
                     formal: OutputPort, qp: QualifiedPair) -> None:
        """Propagate an actual's pair into a formal under the assumption
        that it held on entry, then re-examine the callee's return pairs
        — the new actual pair may newly satisfy their assumptions."""
        assumption: Assumption = (formal, qp.pair)
        self.flow_out(formal, QualifiedPair(qp.pair, frozenset((assumption,))))
        ret = callee.return_node
        if ret is None:
            return
        # Targeted form of Figure 5's "for each r ∈ returns c ...": only
        # return pairs assuming exactly (formal, pair) can be affected.
        if ret.value is not None:
            for rp in self._chain_qpairs(ret.value):
                if assumption in rp.assumptions:
                    self._propagate_return(call, callee, rp, call.out)
        for rp in self._chain_qpairs(ret.store):
            if assumption in rp.assumptions:
                self._propagate_return(call, callee, rp, call.ostore)

    def _flow_return(self, node: ReturnNode, input_port: InputPort,
                     qp: QualifiedPair) -> None:
        if input_port is node.value:
            self._return_value(node, qp)
        elif input_port is node.store:
            self._return_store(node, qp)
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown return input {input_port!r}")

    def _return_value(self, node: ReturnNode, qp: QualifiedPair) -> None:
        graph = node.graph
        for call in self.callgraph.callers(graph):
            self._propagate_return(call, graph, qp, call.out)

    def _return_store(self, node: ReturnNode, qp: QualifiedPair) -> None:
        graph = node.graph
        for call in self.callgraph.callers(graph):
            self._propagate_return(call, graph, qp, call.ostore)

    def _actual_for_formal(self, call: CallNode, callee: FunctionGraph,
                           formal: OutputPort) -> Optional[InputPort]:
        """The call input corresponding to one of the callee's formals."""
        if formal is callee.store_formal:
            return call.store
        for index, callee_formal in enumerate(callee.formals):
            if callee_formal is formal:
                if index < len(call.args):
                    return call.args[index]
                return None
        return None

    def _propagate_return(self, call: CallNode, callee: FunctionGraph,
                          qp: QualifiedPair, target: OutputPort) -> None:
        """Figure 5's ``propagate-return``: for each assumption of the
        returned pair, collect the assumption sets under which the
        assumed pair holds at this call site; the Cartesian product of
        those collections gives every caller assumption set sufficient
        to satisfy the callee's assumptions."""
        satisfier_sets: List[List[AssumptionSet]] = []
        for formal, assumed_pair in self.solution.ordered(qp.assumptions):
            if formal.node.graph is not callee:
                # Assumption about some other procedure's formal: can
                # only happen on a malformed graph.
                raise AnalysisError(
                    f"assumption on foreign formal {formal!r} at {call!r}")
            actual = self._actual_for_formal(call, callee, formal)
            if actual is None or actual.source is None:
                return  # nothing feeds this formal here: unsatisfiable
            chains = self.solution.assumption_sets(actual.source, assumed_pair)
            if not chains:
                return  # the assumed pair never holds at this call site
            satisfier_sets.append(chains)
        if not satisfier_sets:
            self.flow_out(target, QualifiedPair(qp.pair))
            return
        for combination in itertools.product(*satisfier_sets):
            merged: AssumptionSet = frozenset().union(*combination)
            self.flow_out(target, QualifiedPair(qp.pair, merged))

    # .. primops ...................................................................

    def _flow_primop(self, node: PrimopNode, input_port: InputPort,
                     qp: QualifiedPair) -> None:
        semantics = node.semantics
        if semantics is PrimopSemantics.OPAQUE:
            return
        if semantics is PrimopSemantics.COPY:
            if node.copy_operand is not None and \
                    input_port is not node.operands[node.copy_operand]:
                return
            self.flow_out(node.out, qp)
            return
        if semantics is PrimopSemantics.EXTRACT:
            self._primop_extract(node, qp)
            return
        if semantics is PrimopSemantics.FIELD:
            self._primop_field(node, qp)
        elif semantics is PrimopSemantics.INDEX:
            self._primop_index(node, qp)
        else:  # pragma: no cover - future semantics
            raise AnalysisError(f"unknown primop semantics {semantics!r}")

    def _primop_extract(self, node: PrimopNode, qp: QualifiedPair) -> None:
        path = qp.pair.path
        if path.base is None and path.ops and path.ops[0] is node.field_op:
            self.flow_out(node.out, QualifiedPair(
                make_pair(AccessPath(None, path.ops[1:]), qp.pair.referent),
                qp.assumptions))

    def _primop_field(self, node: PrimopNode, qp: QualifiedPair) -> None:
        if qp.pair.path is not EMPTY_OFFSET:
            return
        self.flow_out(node.out, QualifiedPair(
            direct(qp.pair.referent.extend(node.field_op)), qp.assumptions))

    def _primop_index(self, node: PrimopNode, qp: QualifiedPair) -> None:
        if qp.pair.path is not EMPTY_OFFSET:
            return
        self.flow_out(node.out, QualifiedPair(
            direct(qp.pair.referent.extend(INDEX)), qp.assumptions))


def _consume(eng: SensitiveAnalysis, lane: int,
             cond: List[QualifiedPair]) -> None:
    """Handler for ports that consume facts without producing pairs."""


def _make_lane_handler(node: Node, role: str, index: int,
                       table: FactTable) -> LaneHandler:
    """Build the lane handler for one ``(node, role)`` port."""
    if role == "lookup.loc":
        out = node.out
        store_src = node.store.source

        def handler(eng, lane, cond):
            if store_src is None:
                return
            s_lane, s_cond = eng._partner(store_src)
            for r_l, a_l in eng._locations(node, lane, cond):
                eng._lookup_into(out, r_l, a_l, s_lane, s_cond)
        return handler

    if role == "lookup.store":
        out = node.out
        loc_src = node.loc.source

        def handler(eng, lane, cond):
            for r_l, a_l in eng._locations(node, *eng._partner(loc_src)):
                eng._lookup_into(out, r_l, a_l, lane, cond)
        return handler

    if role == "update.loc":
        store_src = node.store.source
        value_src = node.value.source

        def handler(eng, lane, cond):
            v_lane, v_cond = eng._partner(value_src)
            s_lane, s_cond = eng._partner(store_src)
            kept = eng.prune.cannot_modify_mask(node, s_lane)
            for r_l, a_l in eng._locations(node, lane, cond):
                eng._write_into(node, r_l, a_l, v_lane, v_cond)
                eng.lane_out(node.ostore, kept)
                eng._survive_lane(node, r_l, a_l, s_lane, kept)
                if s_cond:
                    lq = QualifiedPair(direct(r_l), a_l)
                    for sq in s_cond:
                        eng._update_survive(node, lq, sq)
        return handler

    if role == "update.store":
        loc_src = node.loc.source

        def handler(eng, lane, cond):
            locs = eng._locations(node, *eng._partner(loc_src))
            if not locs:
                return  # CWZ90: store facts wait for a location
            kept = eng.prune.cannot_modify_mask(node, lane)
            eng.lane_out(node.ostore, kept)
            for r_l, a_l in locs:
                eng._survive_lane(node, r_l, a_l, lane, kept)
            for sq in cond:
                eng._update_store(node, sq)
        return handler

    if role == "update.value":
        loc_src = node.loc.source

        def handler(eng, lane, cond):
            for r_l, a_l in eng._locations(node, *eng._partner(loc_src)):
                eng._write_into(node, r_l, a_l, lane, cond)
        return handler

    if role in ("call.arg", "call.store"):
        decode = table.decode_pairs

        def handler(eng, lane, cond):
            callees = eng.callgraph.callees(node)
            if not callees:
                return
            facts = [QualifiedPair(pair) for pair in decode(lane)] \
                if lane else []
            facts += cond
            for qp in facts:
                for callee in callees:
                    formal = (callee.store_formal if index < 0
                              else callee.corresponding_formal(index))
                    if formal is not None:
                        eng._into_formal(node, callee, formal, qp)
        return handler

    if role in ("return.value", "return.store"):
        graph = node.graph
        to_value = role == "return.value"

        def handler(eng, lane, cond):
            for call in eng.callgraph.callers(graph):
                target = call.out if to_value else call.ostore
                eng.lane_out(target, lane)
                for qp in cond:
                    eng._propagate_return(call, graph, qp, target)
        return handler

    if role in ("call.fcn", "merge.pred"):
        # The call graph is fixed from the CI pass; predicates are
        # ignored (Figure 1).
        return _consume

    if role == "merge.branch":
        return _make_copy_handler(node.out)

    if role == "primop.operand":
        return _make_primop_handler(node, index, table)

    def handler(eng, lane, cond):
        raise AnalysisError(f"qualified pair at unexpected node {node!r}")
    return handler


def _make_copy_handler(out: OutputPort) -> LaneHandler:
    def handler(eng, lane, cond):
        eng.lane_out(out, lane)
        for qp in cond:
            eng.flow_out(out, qp)
    return handler


def _make_primop_handler(node: PrimopNode, index: int,
                         table: FactTable) -> LaneHandler:
    semantics = node.semantics
    out = node.out
    if semantics is PrimopSemantics.OPAQUE:
        return _consume
    if semantics is PrimopSemantics.COPY:
        if node.copy_operand is not None and index != node.copy_operand:
            return _consume  # consumed, but pairs do not flow
        return _make_copy_handler(out)
    if semantics is PrimopSemantics.EXTRACT:
        op, kernel = node.field_op, table.translate_extract
        per_fact = SensitiveAnalysis._primop_extract
    elif semantics is PrimopSemantics.FIELD:
        op, kernel = node.field_op, table.translate_extend
        per_fact = SensitiveAnalysis._primop_field
    elif semantics is PrimopSemantics.INDEX:
        op, kernel = INDEX, table.translate_extend
        per_fact = SensitiveAnalysis._primop_index
    else:  # pragma: no cover - future semantics
        def handler(eng, lane, cond):
            raise AnalysisError(f"unknown primop semantics {semantics!r}")
        return handler

    def handler(eng, lane, cond):
        if lane:
            eng.lane_out(out, kernel(op, lane))
        for qp in cond:
            per_fact(eng, node, qp)
    return handler


def analyze_sensitive(program: Program,
                      ci_result: Optional[AnalysisResult] = None,
                      optimize: bool = True,
                      max_transfers: Optional[int] = None,
                      schedule: str = "batched") -> AnalysisResult:
    """Run the maximally context-sensitive analysis (paper Section 4).

    ``ci_result`` may supply a previously computed context-insensitive
    result (it is computed on demand otherwise); ``optimize=False``
    disables the §4.2 CI-based pruning, which must not change the
    stripped solution — a property the test suite checks.
    """
    return SensitiveAnalysis(program, ci_result, optimize, max_transfers,
                             schedule=schedule).run()
