"""Compositional per-SCC function summaries (ROADMAP item 2).

Ruf's central result — context-insensitive analysis loses almost no
precision at the places clients look — is what makes *cheap* summaries
viable: a per-procedure summary composed bottom-up over the call graph
does not need context cloning to stay useful (compare the generalized
points-to graphs of Gharat/Khedker/Mycroft).  This module provides the
summary layer the incremental driver (:mod:`repro.analysis.incremental`)
persists and replays:

* a **function-level call condensation** — SCCs of the static call
  graph (:func:`_static_callee` edges) unioned with previously
  observed *dynamic* edges, in callees-first topological order;
* **content hashes** — a structural :func:`body_hash` per procedure
  (uid/occurrence-indexed, independent of interning history, of any
  other procedure's body, and of absolute source coordinates — origins
  and heap-site line labels are normalized away, so inserting a line
  above a function re-keys nothing below it) and a
  :func:`context_hash` for the
  program-wide seeds; per-SCC :func:`scc_keys` combine the member body
  hashes with the *callee SCC keys*, so editing any procedure
  transitively re-keys every SCC that can reach it — the invalidation
  cone is encoded in the key itself;
* a :class:`Summary` per SCC — every member output's escaping
  points-to facts (formals, returns, globals: simply *all* solved
  outputs of the member graphs, which is exactly what whole-program
  solving would have materialized there), plus the flavor-exact call
  edges those graphs own — serialized **structurally** (no
  base-location uids, no interned objects), so a summary extracted in
  one process replays into a freshly lowered program in another;
* :func:`extract_summary` / :func:`apply_summary` to move facts
  between an :class:`AnalysisResult` and the serialized form, and a
  small summary algebra (:func:`join_summaries`,
  :func:`summary_digest`) whose lattice laws the property tests pin.

Structural location keys deserve a note: base-locations are identity
objects whose uids depend on process history, so a summary names a
location by ``(kind, name, procedure, occurrence)`` — the occurrence
index disambiguates same-named shadowed locals by their registration
order in ``program.locations``, which the deterministic lowering keeps
stable for unchanged sources.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError
from ..memory.access import INDEX, AccessPath, FieldOp
from ..memory.base import BaseLocation, LocationKind
from ..memory.facttable import decode_ids
from ..memory.pairs import PointsToPair, pair as make_pair
from ..ir.graph import FunctionGraph, Program
from ..ir.nodes import (
    AddressNode,
    CallNode,
    ConstNode,
    LookupNode,
    MergeNode,
    Node,
    OutputPort,
    PrimopNode,
    ReturnNode,
)
from .common import AnalysisResult, CallGraph, PointsToSolution

#: Bump whenever the summary wire format or the hash inputs change —
#: every persisted entry and manifest is invalidated at once.
#: v2: origin-independent content — location keys normalize away the
#: absolute source line baked into heap-site labels, and body hashes
#: no longer cover node origins, so inserting a line above a function
#: shifts every origin below it without re-keying a single SCC.
SUMMARY_VERSION = 2


# -- structural location / path / pair codec -------------------------------


#: Heap-site labels embed the allocation's absolute source line
#: (``<heap:malloc@f:42>``) — the one piece of location identity that
#: shifts when a line is inserted above it.  Keys strip the trailing
#: coordinate; the codec's occurrence index (registration order, a
#: line-shift-invariant pure function of the statement order) keeps
#: same-function same-callee sites distinct.
_HEAP_COORD = re.compile(r"^(<heap:.+):\d+>$")


def normalize_location_name(name: str) -> str:
    """A location name with absolute source coordinates removed."""
    match = _HEAP_COORD.match(name)
    if match is not None:
        return match.group(1) + ">"
    return name


class LocationCodec:
    """Bidirectional structural keys for one program's base-locations.

    A location's key is ``(kind, name, procedure, occurrence)`` where
    ``name`` is :func:`normalize_location_name`'d (source-coordinate
    free) and ``occurrence`` counts same-triple locations in
    registration order (``program.locations`` first, then function
    code addresses and hazard cells not already registered).  The
    deterministic lowering makes registration order — hence the key —
    a pure function of the source text *modulo line position*, which
    is what lets two independent lowerings of the same source (or of
    a line-shifted variant of it) exchange summaries.
    """

    def __init__(self, program: Program) -> None:
        self._key_of: Dict[int, Tuple[str, str, str, int]] = {}
        self._loc_of: Dict[Tuple[str, str, str, int], BaseLocation] = {}
        #: :meth:`encode_path` memo (paths are interned, so they key by
        #: identity).
        self._path_keys: Dict[AccessPath, tuple] = {}
        counts: Dict[Tuple[str, str, str], int] = {}
        ordered: List[BaseLocation] = list(program.locations)
        seen = {id(loc) for loc in ordered}
        for loc in program.function_locations.values():
            if id(loc) not in seen:
                ordered.append(loc)
                seen.add(id(loc))
        hazard = program.extras.get("hazard") or {}
        for loc in hazard.values():
            if isinstance(loc, BaseLocation) and id(loc) not in seen:
                ordered.append(loc)
                seen.add(id(loc))
        for loc in ordered:
            triple = (loc.kind.value, normalize_location_name(loc.name),
                      loc.procedure or "")
            occurrence = counts.get(triple, 0)
            counts[triple] = occurrence + 1
            key = triple + (occurrence,)
            self._key_of[id(loc)] = key
            self._loc_of[key] = loc

    # -- locations --------------------------------------------------------

    def encode_location(self, loc: BaseLocation) -> Tuple[str, str, str, int]:
        key = self._key_of.get(id(loc))
        if key is None:
            raise AnalysisError(
                f"location {loc!r} is not registered with the program "
                "(cannot be summarized)")
        return key

    def decode_location(self, key: Tuple[str, str, str, int]) -> BaseLocation:
        loc = self._loc_of.get(tuple(key))
        if loc is None:
            raise AnalysisError(
                f"summary references unknown location {key!r}")
        return loc

    # -- access paths ------------------------------------------------------

    def encode_path(self, path: AccessPath) -> tuple:
        encoded = self._path_keys.get(path)
        if encoded is None:
            base = (None if path.base is None
                    else self.encode_location(path.base))
            ops = tuple(("i",) if op.is_index
                        else ("f", str(op.owner), op.name)
                        for op in path.ops)
            encoded = self._path_keys[path] = (base, ops)
        return encoded

    def decode_path(self, encoded: tuple) -> AccessPath:
        base_key, ops = encoded
        base = None if base_key is None else self.decode_location(base_key)
        decoded = tuple(INDEX if op[0] == "i" else FieldOp(op[1], op[2])
                        for op in ops)
        return AccessPath(base, decoded)

    # -- pairs -------------------------------------------------------------

    def encode_pair(self, p: PointsToPair) -> tuple:
        return (self.encode_path(p.path), self.encode_path(p.referent))

    def decode_pair(self, encoded: tuple) -> PointsToPair:
        path, referent = encoded
        return make_pair(self.decode_path(path), self.decode_path(referent))


# -- content hashes --------------------------------------------------------


def _hash_update(h, *parts: object) -> None:
    for part in parts:
        h.update(repr(part).encode("utf-8", errors="replace"))
        h.update(b"\x00")


def body_hash(graph: FunctionGraph, codec: LocationCodec) -> str:
    """Structural content hash of one procedure's VDG.

    Covers everything the transfer functions can observe: node kinds,
    uids, the dataflow wiring (producer uid + output index per input),
    per-node payloads (address paths, primop semantics, call arity,
    merge shape), output tags, and the graph's recursion flag (which
    selects footnote-4 location modeling).  Pure function of this one
    graph — editing a different procedure leaves it unchanged.

    Node *origins* (``file:line``) are deliberately excluded, and the
    address paths hash through the codec's coordinate-free keys: the
    transfer functions cannot observe source positions, so two bodies
    that differ only by where they sit in the file must hash equally —
    that is what keeps an inserted line above a function from re-keying
    every function below the edit.
    """
    h = hashlib.sha256()
    _hash_update(h, "body", graph.name, graph.recursive)
    for node in sorted(graph.nodes, key=lambda n: n.uid):
        _hash_update(h, node.kind, node.uid)
        for port in node.inputs:
            source = port.source
            if source is None:
                _hash_update(h, port.name, None)
            else:
                _hash_update(h, port.name, source.node.uid,
                             source.node.outputs.index(source))
        if isinstance(node, AddressNode):
            _hash_update(h, codec.encode_path(node.path))
        elif isinstance(node, LookupNode):
            _hash_update(h, node.is_indirect)
        elif isinstance(node, CallNode):
            _hash_update(h, len(node.args))
        elif isinstance(node, PrimopNode):
            field_op = node.field_op
            _hash_update(h, node.op, node.semantics.name,
                         None if field_op is None
                         else (("i",) if field_op.is_index
                               else ("f", str(field_op.owner),
                                     field_op.name)),
                         node.copy_operand)
        elif isinstance(node, ConstNode):
            _hash_update(h, repr(node.value))
        elif isinstance(node, MergeNode):
            _hash_update(h, len(node.branches), node.pred is not None)
        elif isinstance(node, ReturnNode):
            _hash_update(h, node.value is not None)
        for output in node.outputs:
            _hash_update(h, output.name, output.tag.name,
                         output.carries_pointers)
    return h.hexdigest()


def context_hash(program: Program, codec: LocationCodec) -> str:
    """Hash of the program-wide analysis context: roots, the initial
    (global-initializer) store, explicit value seeds, and the hazard
    cells.  Seeds are keyed by *graph name* (not node uid) so an edit
    inside one procedure re-keys that procedure's SCC — via its body
    hash — without invalidating the whole program."""
    h = hashlib.sha256()
    _hash_update(h, "context", SUMMARY_VERSION, sorted(program.roots))
    for encoded in sorted(repr(codec.encode_pair(p))
                          for p in program.initial_store):
        _hash_update(h, encoded)
    for encoded in sorted(
            repr((output.node.graph.name, codec.encode_pair(p)))
            for output, p in program.seeded_values):
        _hash_update(h, encoded)
    hazard = program.extras.get("hazard") or {}
    _hash_update(h, sorted(hazard))
    return h.hexdigest()


# -- call condensation ------------------------------------------------------


@dataclass
class Condensation:
    """SCCs of the function-level call graph, callees-first.

    ``sccs[i]`` lists the member function names (sorted); ``scc_of``
    maps each function name to its component index; ``callees`` /
    ``callers`` hold the cross-component edges.  The topological order
    guarantees ``j in callees[i]  ⇒  j < i``.
    """

    sccs: List[Tuple[str, ...]]
    scc_of: Dict[str, int]
    callees: Dict[int, Set[int]] = field(default_factory=dict)
    callers: Dict[int, Set[int]] = field(default_factory=dict)

    def caller_closure(self, dirty: Iterable[int]) -> Set[int]:
        """``dirty`` closed under transitive callers — the invalidation
        cone of a set of components."""
        closed: Set[int] = set()
        pending = list(dirty)
        while pending:
            index = pending.pop()
            if index in closed:
                continue
            closed.add(index)
            pending.extend(self.callers.get(index, ()))
        return closed


def _static_callee(program: Program, call: CallNode
                   ) -> Optional[FunctionGraph]:
    """The callee of a syntactically direct call, else ``None``."""
    source = call.fcn.source
    if source is None or not isinstance(source.node, AddressNode):
        return None
    path = source.node.path
    if path.ops or path.base is None:
        return None
    if path.base.kind is not LocationKind.FUNCTION:
        return None
    return program.function_for_location(path.base)


def function_call_edges(program: Program,
                        extra_edges: Iterable[Tuple[str, str]] = ()
                        ) -> Dict[str, Set[str]]:
    """Function-level call edges: static (syntactically direct calls)
    unioned with ``extra_edges`` (previously observed dynamic edges),
    filtered to currently defined functions."""
    edges: Dict[str, Set[str]] = {name: set() for name in program.functions}
    for graph in program.functions.values():
        for node in graph.nodes:
            if isinstance(node, CallNode):
                callee = _static_callee(program, node)
                if callee is not None:
                    edges[graph.name].add(callee.name)
    for caller, callee in extra_edges:
        if caller in edges and callee in program.functions:
            edges[caller].add(callee)
    return edges


def call_condensation(program: Program,
                      extra_edges: Iterable[Tuple[str, str]] = ()
                      ) -> Condensation:
    """Condense the function-level call graph (iterative Tarjan over
    sorted function names, so the component order is deterministic)."""
    adjacency = function_call_edges(program, extra_edges)
    names = sorted(program.functions)
    successors = {name: sorted(adjacency[name]) for name in names}

    indices: Dict[str, int] = {}
    lowlinks: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    popped: List[List[str]] = []
    counter = 0

    for root in names:
        if root in indices:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            vertex, child = work[-1]
            if child == 0:
                indices[vertex] = lowlinks[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            advanced = False
            succs = successors[vertex]
            while child < len(succs):
                succ = succs[child]
                child += 1
                if succ not in indices:
                    work[-1] = (vertex, child)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ) and indices[succ] < lowlinks[vertex]:
                    lowlinks[vertex] = indices[succ]
            if advanced:
                continue
            work.pop()
            if lowlinks[vertex] == indices[vertex]:
                members: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(member)
                    if member == vertex:
                        break
                popped.append(sorted(members))
            if work:
                parent = work[-1][0]
                if lowlinks[vertex] < lowlinks[parent]:
                    lowlinks[parent] = lowlinks[vertex]

    # Tarjan pops components in reverse topological order; reversing
    # again puts callees first (edges point from later to earlier pop).
    sccs = [tuple(members) for members in popped]
    scc_of = {name: index for index, members in enumerate(sccs)
              for name in members}
    cond = Condensation(sccs=sccs, scc_of=scc_of)
    for caller, callees in adjacency.items():
        i = scc_of[caller]
        for callee in callees:
            j = scc_of[callee]
            if i != j:
                cond.callees.setdefault(i, set()).add(j)
                cond.callers.setdefault(j, set()).add(i)
    return cond


def body_hashes(program: Program, codec: LocationCodec) -> Dict[str, str]:
    """:func:`body_hash` for every procedure, computed once."""
    return {name: body_hash(graph, codec)
            for name, graph in program.functions.items()}


def program_key(ctx_hash: str, bodies: Dict[str, str]) -> str:
    """Whole-program content key: any edit anywhere changes it.

    This is the validity domain for summaries that are **not**
    compositional per SCC — the flow-insensitive flavor (one global
    store couples every procedure) and the context-sensitive one
    (facts at a procedure depend on its *callers'* contexts, which
    per-SCC keys — callee-closed by construction — do not track).
    """
    h = hashlib.sha256()
    _hash_update(h, "program", SUMMARY_VERSION, ctx_hash)
    for name in sorted(bodies):
        _hash_update(h, name, bodies[name])
    return h.hexdigest()


def scc_keys(program: Program, cond: Condensation,
             codec: LocationCodec, ctx_hash: str,
             bodies: Optional[Dict[str, str]] = None) -> List[str]:
    """Bottom-up content keys, one per component.

    ``key[i] = H(version, context, sorted (member, body hash), sorted
    callee SCC keys)`` — editing any procedure changes its own SCC's
    key *and*, transitively, every caller SCC's key, so "which
    summaries are reusable" is answered by key lookup alone.  The keys
    are callee-closed, *not* caller-closed: a key match certifies the
    summary's body and everything it reads from below, while facts
    that flowed down from callers are re-certified at replay time by
    the incremental engine's growth/coverage validation.
    """
    if bodies is None:
        bodies = body_hashes(program, codec)
    keys: List[str] = []
    for index, members in enumerate(cond.sccs):
        h = hashlib.sha256()
        _hash_update(h, "scc", SUMMARY_VERSION, ctx_hash)
        for name in members:
            _hash_update(h, name, bodies[name])
        for callee in sorted(cond.callees.get(index, ())):
            _hash_update(h, keys[callee])  # callees-first order
        keys.append(h.hexdigest())
    return keys


# -- the summary container --------------------------------------------------


@dataclass
class Summary:
    """Escaping facts of one call-graph SCC, structurally encoded.

    ``paths`` / ``pairs`` are per-summary intern tables (pairs index
    into paths, output masks index into pairs) so the common case —
    the same pair appearing on many outputs — serializes once.
    ``outputs`` locate ports as ``(graph, node uid, output index)``;
    ``edges`` / ``unresolved`` record the call-graph state of the
    member graphs' own call sites, flavor-exact.
    """

    version: int
    flavor: str
    functions: Tuple[str, ...]
    paths: List[tuple] = field(default_factory=list)
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    outputs: List[Tuple[str, int, int, Tuple[int, ...]]] = \
        field(default_factory=list)
    edges: List[Tuple[str, int, Tuple[str, ...]]] = field(default_factory=list)
    unresolved: List[Tuple[str, int]] = field(default_factory=list)

    def as_payload(self) -> dict:
        return {"version": self.version, "flavor": self.flavor,
                "functions": self.functions, "paths": self.paths,
                "pairs": self.pairs, "outputs": self.outputs,
                "edges": self.edges, "unresolved": self.unresolved}

    @classmethod
    def from_payload(cls, payload: dict) -> "Summary":
        return cls(version=payload["version"], flavor=payload["flavor"],
                   functions=tuple(payload["functions"]),
                   paths=list(payload["paths"]),
                   pairs=list(payload["pairs"]),
                   outputs=list(payload["outputs"]),
                   edges=list(payload["edges"]),
                   unresolved=list(payload["unresolved"]))

    def decoded_outputs(self) -> List[Tuple[str, int, int, List[tuple]]]:
        """Outputs with their encoded pairs expanded (digest/test aid)."""
        expanded = []
        for graph, uid, out_idx, pair_ids in self.outputs:
            pairs = [(self.paths[self.pairs[i][0]],
                      self.paths[self.pairs[i][1]]) for i in pair_ids]
            expanded.append((graph, uid, out_idx, pairs))
        return expanded


def extract_summary(result: AnalysisResult, functions: Sequence[str],
                    codec: LocationCodec) -> Summary:
    """Extract one SCC's summary from a (complete) analysis result.

    Works on the solution's masks, which serves every flavor: CI, CS
    and FI all encode against the program's shared fact table.  Each
    fact id is encoded once per summary, in fact-id order, and each
    distinct mask's sorted pair-index tuple is built once, so no pair
    set is decoded.  Empty outputs are skipped: whole-program solving
    never materializes empty sets either, which keeps replayed
    solutions digest-identical to solved ones.
    """
    summary = Summary(version=SUMMARY_VERSION, flavor=result.flavor,
                      functions=tuple(sorted(functions)))
    solution = result.solution
    pair_of = solution.table.pair_of
    path_ids: Dict[tuple, int] = {}
    pair_ids: Dict[Tuple[int, int], int] = {}
    fact_pairs: Dict[int, int] = {}  # fact id → index in summary.pairs
    mask_pairs: Dict[int, Tuple[int, ...]] = {}  # mask → sorted indices

    def path_id(path: AccessPath) -> int:
        encoded = codec.encode_path(path)
        ident = path_ids.get(encoded)
        if ident is None:
            ident = path_ids[encoded] = len(summary.paths)
            summary.paths.append(encoded)
        return ident

    def pair_id(fact: int) -> int:
        ident = fact_pairs.get(fact)
        if ident is None:
            p = pair_of(fact)
            key = (path_id(p.path), path_id(p.referent))
            ident = pair_ids.get(key)
            if ident is None:
                ident = pair_ids[key] = len(summary.pairs)
                summary.pairs.append(key)
            fact_pairs[fact] = ident
        return ident

    callgraph = result.callgraph
    for name in summary.functions:
        graph = result.program.functions[name]
        for node in sorted(graph.nodes, key=lambda n: n.uid):
            for out_idx, output in enumerate(node.outputs):
                mask = solution.mask(output)
                if not mask:
                    continue
                ids = mask_pairs.get(mask)
                if ids is None:
                    ids = mask_pairs[mask] = tuple(sorted(
                        pair_id(fact) for fact in decode_ids(mask)))
                summary.outputs.append((name, node.uid, out_idx, ids))
            if isinstance(node, CallNode):
                callees = callgraph.callees(node)
                if callees:
                    summary.edges.append(
                        (name, node.uid,
                         tuple(sorted(g.name for g in callees))))
                if node in callgraph.unresolved:
                    summary.unresolved.append((name, node.uid))
    return summary


def _nodes_by_uid(graph: FunctionGraph) -> Dict[int, Node]:
    return {node.uid: node for node in graph.nodes}


def apply_summary(summary: Summary, program: Program, codec: LocationCodec,
                  solution: PointsToSolution, callgraph: CallGraph) -> None:
    """Replay one summary into a solution/callgraph pair.

    Masks are installed directly (no consumer notification): replay is
    a reconstruction of already-converged state, not propagation.  The
    solution's fact table re-interns each decoded pair, so replay works
    into any program object lowered from the same source.
    """
    table = solution.table
    node_maps: Dict[str, Dict[int, Node]] = {}

    def node_at(graph_name: str, uid: int) -> Node:
        nodes = node_maps.get(graph_name)
        if nodes is None:
            graph = program.functions.get(graph_name)
            if graph is None:
                raise AnalysisError(
                    f"summary references unknown function {graph_name!r}")
            nodes = node_maps[graph_name] = _nodes_by_uid(graph)
        node = nodes.get(uid)
        if node is None:
            raise AnalysisError(
                f"summary references unknown node {graph_name}#{uid}")
        return node

    decoded_pairs = [make_pair(codec.decode_path(summary.paths[p]),
                               codec.decode_path(summary.paths[r]))
                     for p, r in summary.pairs]
    for graph_name, uid, out_idx, pair_indices in summary.outputs:
        node = node_at(graph_name, uid)
        if out_idx >= len(node.outputs):
            raise AnalysisError(
                f"summary output index {out_idx} out of range at "
                f"{graph_name}#{uid}")
        mask = table.pair_mask(decoded_pairs[i] for i in pair_indices)
        if mask:
            solution._masks[node.outputs[out_idx]] = mask
    for graph_name, uid, callee_names in summary.edges:
        call = node_at(graph_name, uid)
        if not isinstance(call, CallNode):
            raise AnalysisError(
                f"summary call edge at non-call node {graph_name}#{uid}")
        for callee_name in callee_names:
            callee = program.functions.get(callee_name)
            if callee is None:
                raise AnalysisError(
                    f"summary edge to unknown function {callee_name!r}")
            callgraph.add_edge(call, callee)
    for graph_name, uid in summary.unresolved:
        callgraph.unresolved.add(node_at(graph_name, uid))


# -- summary algebra (property-test surface) --------------------------------


def _canonical(summary: Summary) -> tuple:
    """Fully expanded, order-normalized content of a summary."""
    outputs = tuple(sorted(
        (graph, uid, out_idx, tuple(sorted(map(repr, pairs))))
        for graph, uid, out_idx, pairs in summary.decoded_outputs()))
    return (summary.version, summary.flavor, summary.functions, outputs,
            tuple(sorted(summary.edges)),
            tuple(sorted(summary.unresolved)))


def summary_digest(summary: Summary) -> str:
    """Order-insensitive content hash: two summaries carrying the same
    facts digest equally regardless of intern-table layout."""
    h = hashlib.sha256()
    _hash_update(h, _canonical(summary))
    return h.hexdigest()


def summary_leq(a: Summary, b: Summary) -> bool:
    """Pointwise ⊆ over per-output fact sets, edges, and unresolved
    call sites (the summary lattice's partial order)."""
    facts_b: Dict[Tuple[str, int, int], Set[str]] = {}
    for graph, uid, out_idx, pairs in b.decoded_outputs():
        facts_b[(graph, uid, out_idx)] = {repr(p) for p in pairs}
    for graph, uid, out_idx, pairs in a.decoded_outputs():
        have = facts_b.get((graph, uid, out_idx), set())
        if not {repr(p) for p in pairs} <= have:
            return False
    edges_b: Dict[Tuple[str, int], Set[str]] = {}
    for graph, uid, callees in b.edges:
        edges_b.setdefault((graph, uid), set()).update(callees)
    for graph, uid, callees in a.edges:
        if not set(callees) <= edges_b.get((graph, uid), set()):
            return False
    return set(a.unresolved) <= set(b.unresolved)


def join_summaries(a: Summary, b: Summary) -> Summary:
    """Least upper bound of two summaries over the same function set
    (per-output union of facts, union of edges and unresolved sites)."""
    if a.flavor != b.flavor or a.functions != b.functions:
        raise AnalysisError(
            "can only join summaries of the same flavor and functions")
    joined = Summary(version=SUMMARY_VERSION, flavor=a.flavor,
                     functions=a.functions)
    path_ids: Dict[tuple, int] = {}
    pair_ids: Dict[Tuple[int, int], int] = {}

    def path_id(encoded: tuple) -> int:
        ident = path_ids.get(encoded)
        if ident is None:
            ident = path_ids[encoded] = len(joined.paths)
            joined.paths.append(encoded)
        return ident

    def pair_id(encoded_pair: Tuple[tuple, tuple]) -> int:
        key = (path_id(encoded_pair[0]), path_id(encoded_pair[1]))
        ident = pair_ids.get(key)
        if ident is None:
            ident = pair_ids[key] = len(joined.pairs)
            joined.pairs.append(key)
        return ident

    facts: Dict[Tuple[str, int, int], Set[int]] = {}
    for summary in (a, b):
        for graph, uid, out_idx, pairs in summary.decoded_outputs():
            bucket = facts.setdefault((graph, uid, out_idx), set())
            bucket.update(pair_id(p) for p in pairs)
    for (graph, uid, out_idx), ids in sorted(facts.items()):
        joined.outputs.append((graph, uid, out_idx, tuple(sorted(ids))))

    edges: Dict[Tuple[str, int], Set[str]] = {}
    for summary in (a, b):
        for graph, uid, callees in summary.edges:
            edges.setdefault((graph, uid), set()).update(callees)
    joined.edges = [(graph, uid, tuple(sorted(callees)))
                    for (graph, uid), callees in sorted(edges.items())]
    joined.unresolved = sorted(set(a.unresolved) | set(b.unresolved))
    return joined
