"""Use-after-return / escaping-stack-pointer checker.

When a call returns, every frame of its transitive callees is dead.
The store threaded through the call's ``ostore`` output records what
the caller can still reach: a pair whose *referent* is a local or
parameter cell of a dead frame, held in a cell that survives the
return (a global, the heap, or a caller-visible cell), is a pointer
into freed stack storage.  A returned value that points at a dead
frame's cell is the same bug through the return-value channel.

Both shapes need no hazard lowering — they fall straight out of the
points-to solution — and they are exactly where CI/CS precision can
differ: a callee-local that escapes in one calling context only is
reported unconditionally by CI but context-filtered by CS.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Set

from ...memory.access import AccessPath
from ...memory.base import LocationKind
from ...ir.graph import FunctionGraph
from ...ir.nodes import CallNode
from ..common import AnalysisResult
from .base import REGISTRY, RawFinding

_STACK_KINDS = (LocationKind.LOCAL, LocationKind.PARAM)


def _callee_closures(result: AnalysisResult
                     ) -> Dict[FunctionGraph, FrozenSet[str]]:
    """Each function's name with the names of every function it may
    call, transitively: the frames that are dead once a call to it
    returns."""
    callgraph = result.callgraph
    calls = {graph: {callee for node in graph.nodes
                     if isinstance(node, CallNode)
                     for callee in callgraph.callees(node)}
             for graph in result.program.functions.values()}
    closures: Dict[FunctionGraph, FrozenSet[str]] = {}
    for graph in calls:
        reached: Set[FunctionGraph] = set()
        pending = [graph]
        while pending:
            callee = pending.pop()
            if callee not in reached:
                reached.add(callee)
                pending.extend(calls[callee])
        closures[graph] = frozenset(g.name for g in reached)
    return closures


def _in_frames(path: AccessPath, frames: Set[str]) -> bool:
    """Whether ``path`` lies in a local or parameter cell of one of
    ``frames``."""
    base = path.base
    return base is not None and base.kind in _STACK_KINDS \
        and base.procedure in frames


@REGISTRY.register("stackref")
def check_stack_escapes(result: AnalysisResult) -> Iterator[RawFinding]:
    solution = result.solution
    callgraph = result.callgraph
    closures = _callee_closures(result)
    for graph in result.program.functions.values():
        for node in graph.nodes:
            if not isinstance(node, CallNode):
                continue
            dead: Set[str] = set()
            for callee in callgraph.callees(node):
                dead |= closures[callee]
            # A recursive call keeps the enclosing frame live; its
            # (shared, multi-instance) locals are not dead yet.
            dead.discard(graph.name)
            if not dead:
                continue
            # Only pointers into a dead frame are sorted; a holding
            # cell that dies with the frame too is no escape.
            escapes = [pair for pair in solution.pairs(node.ostore)
                       if _in_frames(pair.referent, dead)
                       and not _in_frames(pair.path, dead)]
            for pair in sorted(escapes, key=repr):
                yield RawFinding(
                    "stackref", node, "warning",
                    f"{pair.path!r} may hold a pointer into the dead "
                    f"frame of {pair.referent.base.procedure} after "
                    f"this call returns",
                    path=pair.referent, evidence=(node.ostore, pair))
            returned = [pair for pair in solution.pairs(node.out)
                        if pair.is_direct
                        and _in_frames(pair.referent, dead)]
            for pair in sorted(returned, key=repr):
                yield RawFinding(
                    "stackref", node, "warning",
                    f"call may return a pointer into the dead frame "
                    f"of {pair.referent.base.procedure}",
                    path=pair.referent, evidence=(node.out, pair))
