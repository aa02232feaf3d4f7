"""Def/use chains through memory.

The other client the paper names (§3.2: "an application, such as
def/use or mod/ref analysis").  For each memory read this module finds
the memory writes whose stored value the read may observe, by walking
the store dependence chain backwards from the lookup:

* an update whose modified-location set may-aliases the read location
  is a reaching definition;
* an update that *strongly* updates the read location (single,
  strongly-updateable target dominating it) kills the walk on that
  chain — the benefit of the analysis's strong updates;
* merges fan the walk out over all branches;
* calls descend into each potential callee's return-store chain, and a
  callee's entry store resumes at that call's store input (the walk is
  call-site-aware even over a context-insensitive points-to result);
* reaching a root procedure's entry store yields the synthetic
  :data:`INITIAL` definition (globals' static initializers / the
  outside world).

The walk itself lives in :class:`repro.analysis.depgraph.ReachingDefs`
— one mask-level traversal per read carrying the read's whole location
footprint — shared with the dependence-graph pass and the dead-store
client (which walks from every read at once).  This module keeps the
historical query surface on top of it.
"""

from __future__ import annotations

from typing import Set

from ...errors import AnalysisError
from ...memory.access import AccessPath
from ...ir.nodes import LookupNode, UpdateNode
from ..common import AnalysisResult
from ..depgraph import INITIAL, Definition, ReachingDefs

__all__ = ["INITIAL", "Definition", "DefUseInfo", "defuse"]


class DefUseInfo:
    """Reaching-definition queries over one analysis result.

    ``call_site_sensitive=True`` (default) resumes each callee's store
    chain at the specific call that entered it; setting it to False
    walks context-insensitively (every caller), which is coarser but
    keeps the state space linear in the graph — use it for
    whole-program sweeps over large recursive programs.
    """

    def __init__(self, result: AnalysisResult,
                 max_visits: int = 1_000_000,
                 call_site_sensitive: bool = True) -> None:
        self.result = result
        self.program = result.program
        self.max_visits = max_visits
        self.call_site_sensitive = call_site_sensitive
        self.engine = ReachingDefs(
            result, max_visits=max_visits,
            call_site_sensitive=call_site_sensitive)

    # -- public queries -----------------------------------------------------

    def reaching_definitions(self, read: LookupNode) -> Set[Definition]:
        """Every definition (update node or :data:`INITIAL`) whose
        stored value the read may observe, over all locations the read
        may reference.  Memoized per read node."""
        if not isinstance(read, LookupNode):
            raise AnalysisError(f"{read!r} is not a memory read")
        return self.engine.reaching_definitions(read)

    def definitions_for(self, read: LookupNode,
                        location: AccessPath) -> Set[Definition]:
        """Reaching definitions for one specific read location."""
        return self.engine.definitions_for(read, location)

    def uses_of(self, write: UpdateNode) -> Set[LookupNode]:
        """Every read that may observe a value this write stored
        (the inverse query, by scanning all reads)."""
        uses: Set[LookupNode] = set()
        for graph in self.program.functions.values():
            for node in graph.nodes:
                if isinstance(node, LookupNode):
                    if write in self.reaching_definitions(node):
                        uses.add(node)
        return uses


def defuse(result: AnalysisResult, max_visits: int = 1_000_000,
           call_site_sensitive: bool = True) -> DefUseInfo:
    """Build def/use query machinery from a points-to result."""
    return DefUseInfo(result, max_visits, call_site_sensitive)
