"""Dead-store detection: a concrete payoff of strong updates.

A memory write is *dead* when no memory read can observe the value it
stored — either a later strong update always overwrites it first, or
nothing ever reads the written location.  The paper's framework makes
this answerable: strong updates kill store pairs, and the def/use
client (:mod:`repro.analysis.clients.defuse`) computes which reads a
write can reach.

Caveats, inherited from the may-analysis setting:

* reported writes are dead *under the analysis' model* — a write to a
  weakly-updated (heap/array/recursive-local) location is never
  reported, because some instance may still be read;
* writes whose location set is empty (dereferences of the null
  pointer) are reported separately as ``unreachable`` rather than
  dead: the paper's standard assumptions say such code never executes;
* escaping effects are visible because the walk is whole-program: a
  write read only by another procedure is *not* dead.
"""

from __future__ import annotations

from typing import List, Optional

from ...ir.nodes import LookupNode, UpdateNode
from ...record import Record
from ..common import AnalysisResult
from ..depgraph import ReachingDefs


class DeadStoreReport(Record):
    """Writes nothing can observe, per the points-to model."""

    def __init__(self, dead: Optional[List[UpdateNode]] = None,
                 unreachable: Optional[List[UpdateNode]] = None,
                 total: int = 0) -> None:
        #: Updates whose stored value no read can observe.
        self.dead = [] if dead is None else dead
        #: Updates with an empty location set (null-only dereferences).
        self.unreachable = [] if unreachable is None else unreachable
        #: Total writes examined.
        self.total = total

    @property
    def live(self) -> int:
        return self.total - len(self.dead) - len(self.unreachable)


def find_dead_stores(result: AnalysisResult) -> DeadStoreReport:
    """Classify every update in the program.

    Cost note: one backward walk over the store graph observes every
    read at once — it starts at each read's store input with that
    read's footprint bits over the union of the footprints — so the
    pass is O(store graph × footprint bits), not O(reads ×
    store-chain).  The walk is context-insensitive (every caller of a
    procedure), which keeps the state space linear and is still sound:
    it only widens the set of observed writes, so nothing live is
    reported dead.
    """
    program = result.program
    reads = [node for graph in program.functions.values()
             for node in graph.nodes if isinstance(node, LookupNode)]
    observed = ReachingDefs(result, call_site_sensitive=False) \
        .reaching_any(reads)

    report = DeadStoreReport()
    solution = result.solution
    for graph in program.functions.values():
        for node in graph.nodes:
            if not isinstance(node, UpdateNode):
                continue
            report.total += 1
            # Mask-level emptiness test: no direct pair at the loc
            # input means no location this write can touch — answered
            # without decoding a single pair object.
            if not solution.op_targets_mask(node):
                report.unreachable.append(node)
            elif node not in observed:
                report.dead.append(node)
    return report
