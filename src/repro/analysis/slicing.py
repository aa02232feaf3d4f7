"""Program slicing over the alias-aware dependence graph.

A slice is the set of dependence-graph nodes reachable from a
criterion — backward (everything that may influence it) or forward
(everything it may influence) — following ``value``, ``mem``,
``call``, and ``control`` edges.  Criteria come in two shapes:

* a source coordinate ``file:line`` — every node lowered from that
  line;
* a checker finding — the finding's own node (``repro check`` keys),
  so the backward slice *is* the finding's explanation: the program
  points whose values can reach the hazard.

Slices inherit the dependence graph's determinism: node sets and the
digest depend only on the lowered program and the points-to solution,
so they are identical across schedules, ``--jobs``, and cache states
(the ``make slice-smoke`` gate).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..choices import DIRECTIONS
from ..errors import AnalysisError
from ..record import Record
from .common import AnalysisResult
from .depgraph import DependenceGraph, build_depgraph


class SliceResult(Record):
    """One computed slice, JSON-shaped and digest-stable."""

    def __init__(self, program: str, flavor: str, criterion: str,
                 direction: str, roots: List[str], nodes: List[str],
                 origins: List[str],
                 edges: Optional[List[Tuple[str, str, str]]] = None
                 ) -> None:
        self.program = program
        self.flavor = flavor
        self.criterion = criterion
        self.direction = direction
        #: Criterion node keys the traversal started from (sorted).
        self.roots = roots
        #: Every node key in the slice (sorted; includes the roots).
        self.nodes = nodes
        #: Distinct source coordinates covered by the slice (sorted).
        self.origins = origins
        #: Edges walked between slice members (sorted (src, dst, kind)).
        self.edges = [] if edges is None else edges

    @property
    def size(self) -> int:
        return len(self.nodes)

    def digest(self) -> str:
        lines = [f"criterion|{self.criterion}",
                 f"direction|{self.direction}"]
        lines += [f"root|{key}" for key in self.roots]
        lines += [f"node|{key}" for key in self.nodes]
        lines += [f"edge|{src}->{dst}:{kind}"
                  for src, dst, kind in self.edges]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        return {"program": self.program, "flavor": self.flavor,
                "criterion": self.criterion,
                "direction": self.direction,
                "roots": list(self.roots), "nodes": list(self.nodes),
                "origins": list(self.origins),
                "edges": [list(edge) for edge in self.edges],
                "size": self.size, "digest": self.digest()}


def _origin_matches(origin: str, criterion: str) -> bool:
    """Exact match, or basename match against an absolute origin
    (suite programs carry absolute paths; ``part.c:101`` should hit
    ``/…/suite/programs/part.c:101``)."""
    return origin == criterion or origin.endswith("/" + criterion)


def criterion_nodes(graph: DependenceGraph, criterion: str) -> List[str]:
    """Node keys lowered from a ``file:line`` source coordinate."""
    if ":" not in criterion:
        raise AnalysisError(
            f"bad slice criterion {criterion!r}; expected file:line")
    keys = sorted(key for key, (_, _, origin) in graph.nodes.items()
                  if origin and _origin_matches(origin, criterion))
    if not keys:
        raise AnalysisError(
            f"criterion {criterion!r} matches no program point; "
            f"origins look like 'file.c:12'")
    return keys


def compute_slice(graph: DependenceGraph, roots: Sequence[str],
                  direction: str = "backward",
                  criterion: str = "") -> SliceResult:
    """Reachability closure over the dependence graph from ``roots``."""
    if direction not in DIRECTIONS:
        raise AnalysisError(
            f"unknown slice direction {direction!r}; "
            f"expected one of {DIRECTIONS}")
    missing = [key for key in roots if key not in graph.nodes]
    if missing:
        raise AnalysisError(
            f"criterion nodes not in the dependence graph: "
            f"{', '.join(sorted(missing))}")
    members: Set[str] = set()
    edges: Set[Tuple[str, str, str]] = set()
    work: List[str] = list(roots)
    while work:
        key = work.pop()
        if key in members:
            continue
        members.add(key)
        for neighbour, kind in graph.neighbours(key, direction):
            if direction == "backward":
                edges.add((neighbour, key, kind))
            else:
                edges.add((key, neighbour, kind))
            if neighbour not in members:
                work.append(neighbour)
    origins = sorted({graph.nodes[key][2] for key in members}
                     - {""})
    return SliceResult(
        program=graph.program.name, flavor=graph.flavor,
        criterion=criterion, direction=direction,
        roots=sorted(set(roots)), nodes=sorted(members),
        origins=origins, edges=sorted(edges))


def slice_criterion(graph: DependenceGraph, criterion: str,
                    direction: str = "backward") -> SliceResult:
    """Slice from a ``file:line`` criterion."""
    roots = criterion_nodes(graph, criterion)
    return compute_slice(graph, roots, direction, criterion=criterion)


def finding_node_key(finding) -> str:
    """The dependence-graph key of a checker finding's node."""
    return f"{finding.function}:{finding.node}"


def resolve_finding(findings: Iterable, key: str):
    """Find the unique finding whose ``key()`` matches ``key``.

    Accepts the full ``repro check`` finding key or any unique
    substring of one (keys are long; a ``checker|...|origin`` prefix
    is usually enough).  Ambiguity and misses are hard errors so a
    slice never silently explains the wrong finding.
    """
    rendered = [(f, "|".join(f.key())) for f in findings]
    exact = [f for f, full in rendered if full == key]
    if len(exact) == 1:
        return exact[0]
    matches = [(f, full) for f, full in rendered if key in full]
    if not matches:
        raise AnalysisError(f"no finding matches key {key!r}")
    if len(matches) > 1:
        sample = "; ".join(sorted(full for _, full in matches)[:3])
        raise AnalysisError(
            f"finding key {key!r} is ambiguous "
            f"({len(matches)} matches, e.g. {sample})")
    return matches[0][0]


def slice_for_finding(graph: DependenceGraph, finding,
                      direction: str = "backward") -> SliceResult:
    """The slice that explains one checker finding.

    ``graph`` must be built from the same (hazard-lowered) result the
    finding was reported against, so the finding's node exists.
    """
    root = finding_node_key(finding)
    if root not in graph.nodes:
        raise AnalysisError(
            f"finding node {root} is not in this dependence graph — "
            f"was it built from the same (hazard-model) lowering?")
    return compute_slice(graph, [root], direction,
                         criterion="finding:" + "|".join(finding.key()))


#: Cap on origin lines quoted in a slice witness.
_WITNESS_ORIGINS = 10


def format_slice_witness(slice_result: SliceResult) -> str:
    """A compact, deterministic explanation block for a finding."""
    origins = slice_result.origins
    shown = origins[:_WITNESS_ORIGINS]
    more = len(origins) - len(shown)
    lines = [f"slice[{slice_result.direction}] "
             f"{slice_result.size} nodes over "
             f"{len(origins)} source lines "
             f"(digest {slice_result.digest()[:12]})"]
    for origin in shown:
        lines.append(f"  reaches {origin}")
    if more > 0:
        lines.append(f"  ... and {more} more lines")
    return "\n".join(lines)


def attach_slice_witnesses(findings: Sequence, result: AnalysisResult,
                           graph: Optional[DependenceGraph] = None
                           ) -> None:
    """Fill each finding's ``witness`` with its backward slice.

    The dependence graph is built once and shared; findings whose node
    is missing from the graph (defensive — all checker nodes come from
    the same lowering) keep their witness untouched.  Witness text is
    excluded from finding keys and digests, so attaching slices never
    perturbs the determinism gates.
    """
    if graph is None:
        graph = build_depgraph(result)
    for finding in findings:
        root = finding_node_key(finding)
        if root not in graph.nodes:
            continue
        slice_result = compute_slice(
            graph, [root], "backward",
            criterion="finding:" + "|".join(finding.key()))
        text = format_slice_witness(slice_result)
        finding.witness = (finding.witness + "\n" + text
                           if finding.witness else text)
