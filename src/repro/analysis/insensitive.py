"""Context-insensitive points-to analysis — the paper's Figure 1.

The algorithm is "essentially the simple algorithm of [CWZ90, Sections
3 and 4.2]": maintain a set of points-to pairs on every node output,
grown incrementally by a worklist.  Whenever a pair is added to a set,
all consumers of that output are notified and make the appropriate
modifications to the sets on their own outputs.  Calls and returns are
handled like jumps — all information at a call's actuals propagates to
all called procedures, and all information at a procedure's returns
propagates to all of its callers.

Strong updates follow the dual-worklist discipline of CWZ90: store
pairs are delayed until at least one pair has arrived on an update's
location input, and blocked pairs are re-examined whenever a further
location pair arrives (the location-arrival case re-scans the full
store set).  Indirect calls repropagate old information to newly
discovered callees.

Termination: outputs and pairs are finite and sets only grow, giving
the paper's O(n³) worst case (O(n²) average when each pointer has a
small constant number of referents).

Two schedules drive the same transfer functions (the paper notes
convergence is independent of the scheduling strategy):

* ``"batched"`` (default) — the **dense engine**: facts are bitsets
  over per-program ids (:class:`~repro.memory.facttable.FactTable`), a
  port-keyed worklist drains each dirty port's whole pending bitset
  through one pre-bound handler, and the pure-forwarding transfer
  functions (merges, copies, call/return plumbing, store pass-through)
  reduce to big-int OR / AND-NOT with no per-fact Python loop;
* ``"fifo"`` — the original one-fact-per-pop queue over interned pair
  objects, kept as the reference implementation for the
  schedule-equivalence gate.

The dense engine's transfer functions run on the **translation
kernels** of :class:`~repro.memory.facttable.FactTable`: each
lookup/update/primop image is a pure function of interned ids,
classified once per table and served from exact-mask memos afterwards,
so warm solves are dict probes plus big-int joins with no pair
objects materialized.  Handlers take ``(engine, mask)`` and capture
only run-independent state (ports, the table), so the bound dispatch
is cached per program and rebinding costs nothing on repeat runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..memory.access import EMPTY_OFFSET, INDEX, AccessPath
from ..memory.facttable import FactTable
from ..memory.pairs import PointsToPair, direct, pair as make_pair
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
    MaskWorklist,
    PointsToSolution,
    Worklist,
    check_schedule,
    resolve_function_value,
    seed_addresses,
    seed_roots,
)

#: A dense batch handler consumes one port's pending fact bitset on
#: behalf of an engine: ``handler(engine, mask)``.  Handlers close
#: over run-independent state only (ports, the fact table), so one
#: bound dispatch table serves every run over a program.
MaskHandler = Callable[["InsensitiveAnalysis", int], None]


class _DispatchCache(dict):
    """Per-program ``InputPort → MaskHandler`` cache, living in
    ``Program.extras``.  Handlers are closures, so the cache pickles
    as empty and rebinds lazily after a cache round-trip."""

    EXTRAS_KEY = "ci_dispatch"

    def __reduce__(self):
        return (_DispatchCache, ())


#: Per-program dense seed plan: ``(entries, extra_meets)`` where
#: ``entries`` is one ``(output, mask)`` per seeded output (all of its
#: seed pairs merged into one bitset) and ``extra_meets`` restores the
#: per-seed ``meets`` count when duplicate seeds collapsed into one
#: bit.  Masks are pure functions of the program's interned fact ids,
#: which the shared table keeps stable across runs and pickling.
_SEED_PLAN_KEY = "ci_seed_plan"


def seed_plan(program: Program, table: FactTable
              ) -> Tuple[List[Tuple[OutputPort, int]], int]:
    """The program's dense seed plan (see :data:`_SEED_PLAN_KEY`),
    built on first request: Figure 1's address seeds, then the roots'
    initial stores and value seeds, merged per output in first-seen
    order."""
    plan = program.extras.get(_SEED_PLAN_KEY)
    if plan is None:
        pair_id = table.pair_id
        masks: Dict[OutputPort, int] = {}
        seeds = 0

        def record(output: OutputPort, pair: PointsToPair) -> None:
            nonlocal seeds
            seeds += 1
            masks[output] = masks.get(output, 0) | (1 << pair_id(pair))

        seed_addresses(program, record)
        seed_roots(program, record)
        entries = list(masks.items())
        extra = seeds - sum(mask.bit_count() for _, mask in entries)
        plan = (entries, extra)
        program.extras[_SEED_PLAN_KEY] = plan
    return plan


class InsensitiveAnalysis:
    """One run of the context-insensitive analysis over a program."""

    def __init__(self, program: Program, schedule: str = "batched") -> None:
        self.program = program
        self.schedule = check_schedule(schedule)
        self.table = FactTable.for_program(program)
        self.solution = PointsToSolution(self.table)
        self.callgraph = CallGraph()
        self.counters = Counters()
        dispatch = program.extras.get(_DispatchCache.EXTRAS_KEY)
        if not isinstance(dispatch, _DispatchCache):
            dispatch = _DispatchCache()
            program.extras[_DispatchCache.EXTRAS_KEY] = dispatch
        self._dispatch: Dict[InputPort, MaskHandler] = dispatch
        self._dense = self.schedule == "batched"
        #: Per-run handler state: location-list (dense) and pair-list
        #: (FIFO) snapshots keyed by the feeding output, and
        #: update-store classification memos keyed by node (see the
        #: update.store handler).
        self._loc_cache: Dict[OutputPort, Tuple[int, List[AccessPath]]] = {}
        self._pair_cache: Dict[OutputPort,
                               Tuple[int, List[PointsToPair]]] = {}
        self._node_state: Dict[Node, dict] = {}
        self.worklist: object = MaskWorklist() if self._dense else Worklist()

    # -- driver ------------------------------------------------------------

    def run(self) -> AnalysisResult:
        decode_calls_before = self.table.decode_calls
        kernel_calls_before = self.table.kernel_calls
        started = time.perf_counter()
        if self._dense:
            self._run_dense()
        else:
            self._run_fifo()
        elapsed = time.perf_counter() - started
        extras = {
            "phases": {"solve": elapsed},
            "dense": {
                "fact_ids": self.table.pair_count(),
                "bitset_words": self.solution.bitset_words(),
                "kernel_calls": self.table.kernel_calls
                - kernel_calls_before,
                "decode_calls": self.table.decode_calls
                - decode_calls_before,
            },
        }
        return AnalysisResult(
            program=self.program,
            solution=self.solution,
            callgraph=self.callgraph,
            counters=self.counters,
            elapsed_seconds=elapsed,
            flavor="insensitive",
            extras=extras,
        )

    def _run_fifo(self) -> None:
        seed_addresses(self.program, self.flow_out)
        seed_roots(self.program, self.flow_out)
        worklist = self.worklist
        counters = self.counters
        while worklist:
            input_port, fact = worklist.pop()
            counters.transfers += 1
            counters.batches += 1
            self.flow_in(input_port, fact)

    def _seed_dense(self) -> None:
        """Replay the seeds as per-output bitset joins.

        The merged plan is counter-exact: ``flow_out_mask`` counts one
        meet per seed bit (plus ``extra_meets`` for duplicate seeds of
        one pair), and the join delta counts ``pairs_added`` the same
        whether pairs arrive one at a time or batched.
        """
        entries, extra = seed_plan(self.program, self.table)
        flow_out_mask = self.flow_out_mask
        for output, mask in entries:
            flow_out_mask(output, mask)
        self.counters.meets += extra

    def _run_dense(self) -> None:
        self._seed_dense()
        self._drain()

    def _drain(self) -> None:
        """Run the dense worklist until it is empty."""
        dispatch = self._dispatch
        worklist = self.worklist
        counters = self.counters
        bind_node = self._bind_node
        pop = worklist.pop
        pending = worklist.pending
        batches = 0
        transfers = 0
        try:
            while pending:
                input_port, mask = pop()
                batches += 1
                transfers += mask.bit_count()
                handler = dispatch.get(input_port)
                if handler is None:
                    handler = bind_node(input_port)
                handler(self, mask)
        finally:
            counters.batches += batches
            counters.transfers += transfers

    # -- propagation ----------------------------------------------------------

    def flow_out(self, output: OutputPort, pair: PointsToPair) -> None:
        """Join ``pair`` into P(output); notify consumers if it is new.
        Object-level entry, used by the seeds and the FIFO schedule."""
        self.counters.meets += 1
        if not self.solution.add(output, pair):
            return
        self.counters.pairs_added += 1
        if self._dense:
            bit = 1 << self.table.pair_id(pair)
            for consumer in output.consumers:
                self.worklist.push_mask(consumer, bit)
        else:
            for consumer in output.consumers:
                self.worklist.push(consumer, pair)

    def flow_out_mask(self, output: OutputPort, mask: int) -> None:
        """Dense flow-out: one bitset delta-join for a whole batch of
        candidate facts, counters updated in bulk, and each consumer
        notified once with the full delta.  The innermost call of
        every warm solve, so the join is inlined
        (:meth:`PointsToSolution.join_mask` unwrapped)."""
        if not mask:
            return
        counters = self.counters
        counters.meets += mask.bit_count()
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

    def _locs_at(self, source: Optional[OutputPort]) -> List[AccessPath]:
        """The location set denoted by the output feeding a loc input:
        referents of its direct pairs, snapshotted per bitset value so
        repeat handler invocations against an unchanged input are one
        dict probe (no decode, no filtering)."""
        if source is None:
            return []
        bits = self.solution.mask(source)
        if not bits:
            return []
        cached = self._loc_cache.get(source)
        if cached is not None and cached[0] == bits:
            return cached[1]
        locs = self.table.direct_referents(bits)
        self._loc_cache[source] = (bits, locs)
        return locs

    def _pairs(self, input_port: Optional[InputPort]
               ) -> List[PointsToPair]:
        """Current pairs on the output feeding ``input_port``, in fact
        id order, snapshotted per bitset value like :meth:`_locs_at`
        (safe to iterate while the solution grows; do not mutate).  Id
        order, not the decoded frozenset's: pairs hash by identity, so
        set order would make the FIFO counters depend on memory
        layout."""
        if input_port is None or input_port.source is None:
            return []
        source = input_port.source
        bits = self.solution.mask(source)
        cached = self._pair_cache.get(source)
        if cached is None or cached[0] != bits:
            cached = (bits, self.table.decode_pairs(bits))
            self._pair_cache[source] = cached
        return cached[1]

    def _mask(self, input_port: Optional[InputPort]) -> int:
        """Current fact bitset on the output feeding ``input_port``."""
        if input_port is None or input_port.source is None:
            return 0
        return self.solution.mask(input_port.source)

    # -- dense dispatch ----------------------------------------------------

    def _bind_node(self, input_port: InputPort) -> MaskHandler:
        """Bind handlers for one node, on the first fact to reach it.

        The handlers capture their node's sibling ports and the fact
        table in closure cells — nothing run-specific — so the bound
        dispatch lives in ``Program.extras`` and repeat runs over the
        same program (benchmark repeats, the CS pass behind CI, warm
        fuzz legs) skip rebinding entirely.  Binding lazily — per
        node, the first time any of its ports goes dirty — matters for
        small programs, where walking every node up front costs more
        than the whole fixpoint; nodes facts never reach are never
        bound.
        """
        dispatch = self._dispatch
        node = input_port.node
        for port, role, index in input_roles(node):
            dispatch[port] = self._make_port_handler(node, role, index)
        handler = dispatch.get(input_port)
        if handler is None:
            raise AnalysisError(
                f"pair arrived at unexpected node {input_port.node!r}")
        return handler

    def _make_port_handler(self, node: Node, role: str,
                           index: int) -> MaskHandler:
        return _make_handler(node, role, index, self.table)

    # -- transfer functions (flow-in, Figure 1; FIFO schedule) ----------------

    def flow_in(self, input_port: InputPort, fact: PointsToPair) -> None:
        node = input_port.node
        if isinstance(node, LookupNode):
            self._flow_lookup(node, input_port, fact)
        elif isinstance(node, UpdateNode):
            self._flow_update(node, input_port, fact)
        elif isinstance(node, CallNode):
            self._flow_call(node, input_port, fact)
        elif isinstance(node, ReturnNode):
            self._flow_return(node, input_port, fact)
        elif isinstance(node, MergeNode):
            self._flow_merge(node, input_port, fact)
        elif isinstance(node, PrimopNode):
            self._flow_primop(node, input_port, fact)
        else:
            raise AnalysisError(f"pair arrived at unexpected node {node!r}")

    def _flow_lookup(self, node: LookupNode, input_port: InputPort,
                     fact: PointsToPair) -> None:
        """A new location dereferences the store / a new store pair is
        dereferenced by all known locations."""
        if input_port is node.loc:
            if fact.path is not EMPTY_OFFSET:
                return  # only the pointer value itself can be dereferenced
            r_l = fact.referent
            for sp in self._pairs(node.store):
                if dom(r_l, sp.path):
                    self.flow_out(node.out,
                                  make_pair(sp.path.subtract(r_l), sp.referent))
        elif input_port is node.store:
            for lp in self._pairs(node.loc):
                if lp.path is not EMPTY_OFFSET:
                    continue
                if dom(lp.referent, fact.path):
                    self.flow_out(node.out,
                                  make_pair(fact.path.subtract(lp.referent),
                                            fact.referent))
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown lookup input {input_port!r}")

    def _flow_update(self, node: UpdateNode, input_port: InputPort,
                     fact: PointsToPair) -> None:
        """New locations write all values and release non-killed store
        pairs; new store pairs propagate if at least one location does
        not strongly update them; new values are written everywhere."""
        if input_port is node.loc:
            if fact.path is not EMPTY_OFFSET:
                return
            r_l = fact.referent
            for vp in self._pairs(node.value):
                self.flow_out(node.ostore,
                              make_pair(r_l.append(vp.path), vp.referent))
            for sp in self._pairs(node.store):
                if not strong_dom(r_l, sp.path):
                    self.flow_out(node.ostore, sp)
        elif input_port is node.store:
            for lp in self._pairs(node.loc):
                if lp.path is not EMPTY_OFFSET:
                    continue
                if not strong_dom(lp.referent, fact.path):
                    self.flow_out(node.ostore, fact)
                    break  # one non-killing location suffices
        elif input_port is node.value:
            for lp in self._pairs(node.loc):
                if lp.path is not EMPTY_OFFSET:
                    continue
                self.flow_out(node.ostore,
                              make_pair(lp.referent.append(fact.path),
                                        fact.referent))
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown update input {input_port!r}")

    def _flow_call(self, node: CallNode, input_port: InputPort,
                   fact: PointsToPair) -> None:
        if input_port is node.fcn:
            self._discover_callee(node, fact)
            return
        if input_port is node.store:
            for callee in self.callgraph.callees(node):
                self.flow_out(callee.store_formal, fact)
            return
        for index, arg in enumerate(node.args):
            if input_port is arg:
                for callee in self.callgraph.callees(node):
                    formal = callee.corresponding_formal(index)
                    if formal is not None:
                        self.flow_out(formal, fact)
                return
        raise AnalysisError(f"unknown call input {input_port!r}")

    def _discover_callee(self, node: CallNode, fact: PointsToPair) -> None:
        """A new function value updates the call graph and performs the
        appropriate repropagation of already-known actuals and returns.

        Snapshots are load-bearing under every schedule: in a
        self-recursive procedure an actual's source can be the callee's
        own formal output, so the iterated set is the one being grown.
        The dense path snapshots bitsets (immutable ints); the FIFO
        path iterates the freshly decoded lists of :meth:`_pairs`.
        """
        if fact.path is not EMPTY_OFFSET:
            return
        callee = resolve_function_value(self.program, fact.referent)
        if callee is None:
            self.callgraph.unresolved.add(node)
            return
        if not self.callgraph.add_edge(node, callee):
            return
        if self._dense:
            flow_out_mask = self.flow_out_mask
            for index, arg in enumerate(node.args):
                formal = callee.corresponding_formal(index)
                if formal is not None:
                    flow_out_mask(formal, self._mask(arg))
            flow_out_mask(callee.store_formal, self._mask(node.store))
            ret = callee.return_node
            if ret is not None:
                if ret.value is not None:
                    flow_out_mask(node.out, self._mask(ret.value))
                flow_out_mask(node.ostore, self._mask(ret.store))
            return
        for index, arg in enumerate(node.args):
            formal = callee.corresponding_formal(index)
            if formal is None:
                continue
            for pair in self._pairs(arg):
                self.flow_out(formal, pair)
        for pair in self._pairs(node.store):
            self.flow_out(callee.store_formal, pair)
        ret = callee.return_node
        if ret is not None:
            if ret.value is not None:
                for pair in self._pairs(ret.value):
                    self.flow_out(node.out, pair)
            for pair in self._pairs(ret.store):
                self.flow_out(node.ostore, pair)

    def _flow_return(self, node: ReturnNode, input_port: InputPort,
                     fact: PointsToPair) -> None:
        graph = node.graph
        if input_port is node.value:
            for call in self.callgraph.callers(graph):
                self.flow_out(call.out, fact)
        elif input_port is node.store:
            for call in self.callgraph.callers(graph):
                self.flow_out(call.ostore, fact)
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown return input {input_port!r}")

    def _flow_merge(self, node: MergeNode, input_port: InputPort,
                    fact: PointsToPair) -> None:
        if input_port is node.pred:
            return  # predicate is ignored (Figure 1)
        self.flow_out(node.out, fact)

    def _flow_primop(self, node: PrimopNode, input_port: InputPort,
                     fact: PointsToPair) -> None:
        semantics = node.semantics
        if semantics is PrimopSemantics.OPAQUE:
            return
        if semantics is PrimopSemantics.COPY:
            if node.copy_operand is not None and \
                    input_port is not node.operands[node.copy_operand]:
                return  # consumed, but pairs do not flow (lib calls)
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
            self.flow_out(node.out,
                          direct(fact.referent.extend(node.field_op)))
        elif semantics is PrimopSemantics.INDEX:
            self.flow_out(node.out, direct(fact.referent.extend(INDEX)))
        else:  # pragma: no cover - future semantics
            raise AnalysisError(f"unknown primop semantics {semantics!r}")


def _consume(eng: "InsensitiveAnalysis", mask: int) -> None:
    """Handler for ports that consume facts without producing pairs."""


def _make_handler(node: Node, role: str, index: int,
                  table: FactTable) -> MaskHandler:
    """Build the dense batch handler for one ``(node, role)`` port.

    Handlers run on the table's translation kernels: every per-fact
    image (lookup subtract, update write/kill, primop peel/extend) is
    classified once per table and served from exact-mask memos, so
    handlers perform dict probes and big-int/word ops — no pair
    objects are decoded on the hot path.

    """
    base_mask = table._base_masks.get
    direct_referents = table.direct_referents
    translate_lookup = table.translate_lookup
    translate_writes = table.translate_writes
    kill_mask = table.kill_mask

    lookup_memos: Dict[AccessPath, Dict[int, int]] = {}
    lookup_memo = table.lookup_memo

    if role == "lookup.loc":
        out = node.out
        store_src = node.store.source

        def handler(eng, mask: int) -> None:
            if store_src is None:
                return
            store_bits = eng.solution.mask(store_src)
            emit = 0
            # A location (ε, r_l) can only dereference store pairs
            # rooted at r_l.base: the table's global base index slices
            # the store bitset down to them before the kernel runs.
            for r_l in direct_referents(mask):
                candidates = store_bits & base_mask(r_l.base, 0)
                if candidates:
                    memo = lookup_memos.get(r_l)
                    if memo is None:
                        memo = lookup_memos[r_l] = lookup_memo(r_l)
                    part = memo.get(candidates)
                    if part is None:
                        part = translate_lookup(r_l, candidates)
                    emit |= part
            eng.flow_out_mask(out, emit)
        return handler

    if role == "lookup.store":
        out = node.out
        loc_src = node.loc.source

        def handler(eng, mask: int) -> None:
            locs = eng._locs_at(loc_src)
            if not locs:
                return
            emit = 0
            for r_l in locs:
                relevant = mask & base_mask(r_l.base, 0)
                if relevant:
                    memo = lookup_memos.get(r_l)
                    if memo is None:
                        memo = lookup_memos[r_l] = lookup_memo(r_l)
                    part = memo.get(relevant)
                    if part is None:
                        part = translate_lookup(r_l, relevant)
                    emit |= part
            eng.flow_out_mask(out, emit)
        return handler

    write_memos: Dict[AccessPath, Dict[int, int]] = {}
    write_memo = table.write_memo
    kill_memos: Dict[AccessPath, Dict[int, int]] = {}
    kill_memo = table.kill_memo
    # strongly_updateable is a pure property of the (interned) path,
    # recomputed per query; one probe per location per batch adds up.
    strong_memo: Dict[AccessPath, bool] = {}

    if role == "update.loc":
        ostore = node.ostore
        store_src = node.store.source
        value_src = node.value.source

        def handler(eng, mask: int) -> None:
            solution = eng.solution
            value_bits = (solution.mask(value_src)
                          if value_src is not None else 0)
            store_bits = (solution.mask(store_src)
                          if store_src is not None else 0)
            emit = 0
            released_all = False
            for r_l in direct_referents(mask):
                if value_bits:
                    memo = write_memos.get(r_l)
                    if memo is None:
                        memo = write_memos[r_l] = write_memo(r_l)
                    part = memo.get(value_bits)
                    if part is None:
                        part = translate_writes(r_l, value_bits)
                    emit |= part
                if released_all:
                    continue  # store release already maximal
                strong = strong_memo.get(r_l)
                if strong is None:
                    strong = strong_memo[r_l] = r_l.strongly_updateable
                if not strong:
                    # A weak location kills nothing: the whole store
                    # passes through, and any further fact's release
                    # is a subset of this one.
                    emit |= store_bits
                    released_all = True
                    continue
                # Only same-base store pairs can be killed; the
                # survivors are one AND-NOT off the full store.  A
                # bare location (no access operators) kills exactly
                # the same-base slice — no kernel query needed.
                same_base = store_bits & base_mask(r_l.base, 0)
                r_ops = r_l.ops
                if not r_ops:
                    killed = same_base
                elif same_base:
                    memo = kill_memos.get(r_l)
                    if memo is None:
                        memo = kill_memos[r_l] = kill_memo(r_l)
                    killed = memo.get(same_base)
                    if killed is None:
                        killed = kill_mask(r_l, same_base)
                else:
                    killed = 0
                if not killed:
                    released_all = True
                emit |= store_bits & ~killed
            eng.flow_out_mask(ostore, emit)
        return handler

    if role == "update.store":
        ostore = node.ostore
        loc_src = node.loc.source

        def handler(eng, mask: int) -> None:
            # Classification memo: a store fact's fate (killed by
            # every location vs. surviving some) is a pure function of
            # the location set, so it is computed once per fact and
            # reused for every later batch — invalidated wholesale
            # when the location set grows (the loc-arrival handler
            # separately releases newly surviving pairs, preserving
            # CWZ90's blocked-pair discipline).  Per-run state, keyed
            # by node on the engine.
            loc_bits = (eng.solution.mask(loc_src)
                        if loc_src is not None else 0)
            state = eng._node_state.get(node)
            if state is None or state["loc_bits"] != loc_bits:
                state = {"loc_bits": loc_bits,
                         "locs": direct_referents(loc_bits),
                         "classified": 0, "killed": 0}
                eng._node_state[node] = state
            unknown = mask & ~state["classified"]
            if unknown:
                # A fact is killed iff *every* location strongly
                # updates it: intersect per-location strong-dom
                # masks.  No locations yet means every fact is
                # blocked (CWZ90's delayed release); a bare
                # strongly-updateable location's strong-dom mask is
                # exactly its same-base slice — pure bit ops.
                killed = unknown
                for r_l in state["locs"]:
                    if not killed:
                        break
                    strong = strong_memo.get(r_l)
                    if strong is None:
                        strong = strong_memo[r_l] = r_l.strongly_updateable
                    if not strong:
                        killed = 0
                        break
                    dominated = killed & base_mask(r_l.base, 0)
                    if r_l.ops and dominated:
                        memo = kill_memos.get(r_l)
                        if memo is None:
                            memo = kill_memos[r_l] = kill_memo(r_l)
                        cached = memo.get(dominated)
                        dominated = (cached if cached is not None
                                     else kill_mask(r_l, dominated))
                    killed = dominated
                state["classified"] |= unknown
                state["killed"] |= killed
            eng.flow_out_mask(ostore, mask & ~state["killed"])
        return handler

    if role == "update.value":
        ostore = node.ostore
        loc_src = node.loc.source

        def handler(eng, mask: int) -> None:
            locs = eng._locs_at(loc_src)
            if not locs:
                return
            emit = 0
            for r_l in locs:
                memo = write_memos.get(r_l)
                if memo is None:
                    memo = write_memos[r_l] = write_memo(r_l)
                part = memo.get(mask)
                if part is None:
                    part = translate_writes(r_l, mask)
                emit |= part
            eng.flow_out_mask(ostore, emit)
        return handler

    if role == "call.fcn":
        decode = table.decode_pairs

        def handler(eng, mask: int) -> None:
            for fact in decode(mask):
                eng._discover_callee(node, fact)
        return handler

    if role == "call.store":
        def handler(eng, mask: int) -> None:
            flow_out_mask = eng.flow_out_mask
            for callee in eng.callgraph.callees(node):
                flow_out_mask(callee.store_formal, mask)
        return handler

    if role == "call.arg":
        def handler(eng, mask: int) -> None:
            flow_out_mask = eng.flow_out_mask
            for callee in eng.callgraph.callees(node):
                formal = callee.corresponding_formal(index)
                if formal is not None:
                    flow_out_mask(formal, mask)
        return handler

    if role == "return.value":
        graph = node.graph

        def handler(eng, mask: int) -> None:
            flow_out_mask = eng.flow_out_mask
            for call in eng.callgraph.callers(graph):
                flow_out_mask(call.out, mask)
        return handler

    if role == "return.store":
        graph = node.graph

        def handler(eng, mask: int) -> None:
            flow_out_mask = eng.flow_out_mask
            for call in eng.callgraph.callers(graph):
                flow_out_mask(call.ostore, mask)
        return handler

    if role == "merge.pred":
        return _consume  # predicate is ignored (Figure 1)

    if role == "merge.branch":
        out = node.out

        def handler(eng, mask: int) -> None:
            eng.flow_out_mask(out, mask)
        return handler

    if role == "primop.operand":
        return _make_primop_handler(node, index, table)

    def handler(eng, mask: int) -> None:
        raise AnalysisError(f"pair arrived at unexpected node {node!r}")
    return handler


def _make_primop_handler(node: PrimopNode, index: int,
                         table: FactTable) -> MaskHandler:
    semantics = node.semantics
    out = node.out

    if semantics is PrimopSemantics.OPAQUE:
        return _consume

    if semantics is PrimopSemantics.COPY:
        if node.copy_operand is not None and index != node.copy_operand:
            return _consume  # consumed, but pairs do not flow (lib calls)

        def handler(eng, mask: int) -> None:
            eng.flow_out_mask(out, mask)
        return handler

    if semantics is PrimopSemantics.EXTRACT:
        field_op = node.field_op
        translate_extract = table.translate_extract
        memo = table.extract_memo(field_op)

        def handler(eng, mask: int) -> None:
            emit = memo.get(mask)
            if emit is None:
                emit = translate_extract(field_op, mask)
            eng.flow_out_mask(out, emit)
        return handler

    if semantics is PrimopSemantics.FIELD:
        field_op = node.field_op
        translate_extend = table.translate_extend
        memo = table.extend_memo(field_op)

        def handler(eng, mask: int) -> None:
            emit = memo.get(mask)
            if emit is None:
                emit = translate_extend(field_op, mask)
            eng.flow_out_mask(out, emit)
        return handler

    if semantics is PrimopSemantics.INDEX:
        translate_extend = table.translate_extend
        memo = table.extend_memo(INDEX)

        def handler(eng, mask: int) -> None:
            emit = memo.get(mask)
            if emit is None:
                emit = translate_extend(INDEX, mask)
            eng.flow_out_mask(out, emit)
        return handler

    def handler(eng, mask: int) -> None:  # pragma: no cover
        raise AnalysisError(f"unknown primop semantics {semantics!r}")
    return handler


def analyze_insensitive(program: Program,
                        schedule: str = "batched") -> AnalysisResult:
    """Run the context-insensitive analysis (paper Section 3)."""
    return InsensitiveAnalysis(program, schedule=schedule).run()
