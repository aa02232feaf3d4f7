"""Checker framework: bug-finding clients over an analysis result.

Ruf's claim is that context sensitivity buys nothing *at the places
clients look*.  The aggregate clients (mod/ref, def/use, dead stores)
ask that question of summary sets; the checkers in this package ask it
of concrete bug reports: does the context-sensitive solution flag the
same null dereferences, escaping stack pointers, uninitialized reads,
and wild indirect calls as the context-insensitive one?

A checker is a generator over one :class:`AnalysisResult` yielding
:class:`RawFinding` objects (live IR nodes + interned paths).  The
framework renders them into plain-string :class:`Finding` records —
picklable, deterministic, deduplicated — attaches witness derivations
via :mod:`repro.analysis.explain`, and digests the findings so runs
can be compared across schedules and job counts.
"""

from __future__ import annotations

import hashlib
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import AnalysisError
from ...memory.access import AccessPath
from ...memory.base import BaseLocation, LocationKind
from ...memory.pairs import PointsToPair
from ...ir.graph import Program
from ...ir.nodes import Node, OutputPort
from ...record import Record
from ..common import AnalysisResult

#: Severity levels, ordered: "error" marks a must-hazard (every target
#: of the operation is invalid), "warning" a may-hazard.
SEVERITIES = ("error", "warning")


def render_path(path: Optional[AccessPath]) -> str:
    """Stable rendering of an access path (uid-free, matches the
    export module's ``path_to_string``)."""
    if path is None:
        return ""
    base = path.base.describe() if path.base is not None else "ε"
    return base + "".join(repr(op) for op in path.ops)


def is_summary(base: Optional[BaseLocation]) -> bool:
    """Whether a base-location is a synthetic hazard cell."""
    return base is not None and base.kind is LocationKind.SUMMARY


def representative(pairs: Iterable[PointsToPair]) -> PointsToPair:
    """The canonical pair of a non-empty hazard set, for reporting.

    Checkers report one pair per finding; solution sets iterate in
    hash/decode order, which varies with the process's interning
    history — picking ``pairs[0]`` made the *rendered path* (and so
    ``findings_digest``) depend on which programs were analyzed
    earlier in the process.  The minimum rendered path is a pure
    content function of the set.
    """
    return min(pairs, key=lambda p: render_path(p.referent))


def hazard_cells(program: Program) -> Dict[str, BaseLocation]:
    """The program's ``<null>``/``<uninit>`` cells ({} when lowered
    without the hazard model)."""
    return program.extras.get("hazard") or {}


class RawFinding(Record):
    """A checker's in-process report: live node, interned path.

    ``evidence`` is the (output, pair) fact whose derivation becomes
    the finding's witness; checkers leave it ``None`` when the finding
    is about an *absence* of facts (e.g. an empty call target set).
    """

    def __init__(self, checker: str, node: Node, severity: str,
                 message: str, path: Optional[AccessPath] = None,
                 evidence: Optional[Tuple[OutputPort, PointsToPair]] = None
                 ) -> None:
        self.checker = checker
        self.node = node
        self.severity = severity
        self.message = message
        self.path = path
        self.evidence = evidence


class Finding(Record):
    """A rendered finding: plain strings only, safe to pickle across
    worker processes and stable across runs.

    ``witness`` holds the derivation text for the evidence fact; it is
    *excluded* from :meth:`key` (and hence from digests) because the
    explainer's greedy search is not cross-process deterministic — the
    facts it cites are, but the tree shape may differ.
    """

    def __init__(self, checker: str, flavor: str, function: str, node: str,
                 origin: str, path: str, severity: str, message: str,
                 witness: str = "") -> None:
        self.checker = checker
        self.flavor = flavor
        self.function = function
        #: "kind#uid", stable for a deterministic lowering.
        self.node = node
        #: "file:line" source position, "" when unknown.
        self.origin = origin
        #: Rendered access path the finding is about.
        self.path = path
        self.severity = severity
        self.message = message
        self.witness = witness

    def key(self) -> Tuple[str, ...]:
        """Identity for dedup and digests (witness excluded)."""
        return (self.checker, self.flavor, self.function, self.node,
                self.origin, self.path, self.severity, self.message)

    @property
    def line(self) -> Optional[int]:
        """Source line parsed off the origin, for SARIF locations."""
        _, _, tail = self.origin.rpartition(":")
        return int(tail) if tail.isdigit() else None

    @property
    def file(self) -> str:
        head, sep, tail = self.origin.rpartition(":")
        return head if sep and tail.isdigit() else self.origin

    def as_dict(self) -> Dict[str, object]:
        return {"checker": self.checker, "flavor": self.flavor,
                "function": self.function, "node": self.node,
                "origin": self.origin, "path": self.path,
                "severity": self.severity, "message": self.message,
                "witness": self.witness}


#: Signature every registered checker implements.
CheckerFn = Callable[[AnalysisResult], Iterator[RawFinding]]


class CheckerRegistry:
    """Name → checker function table with validation."""

    def __init__(self) -> None:
        self._checkers: Dict[str, CheckerFn] = {}

    def register(self, name: str) -> Callable[[CheckerFn], CheckerFn]:
        def decorate(fn: CheckerFn) -> CheckerFn:
            if name in self._checkers:
                raise AnalysisError(f"checker {name!r} already registered")
            self._checkers[name] = fn
            return fn
        return decorate

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._checkers))

    def get(self, names: Optional[Sequence[str]] = None
            ) -> List[Tuple[str, CheckerFn]]:
        if names is None:
            names = self.names()
        selected = []
        for name in names:
            fn = self._checkers.get(name)
            if fn is None:
                raise AnalysisError(
                    f"unknown checker {name!r}; expected one of "
                    f"{', '.join(self.names())}")
            selected.append((name, fn))
        return selected


#: The process-wide registry the concrete checker modules populate.
REGISTRY = CheckerRegistry()


def run_checkers(result: AnalysisResult,
                 names: Optional[Sequence[str]] = None, *,
                 witness: bool = False) -> List[Finding]:
    """Run checkers over one result: sorted, deduplicated findings.

    Checkers run in registry (alphabetical) order; findings are sorted
    by (checker, function, node uid, path, message) and deduplicated
    on :meth:`Finding.key`, so the list — and its digest — is identical
    for any schedule or job count that produced the same solution.
    """
    raw: List[RawFinding] = []
    for _, fn in REGISTRY.get(names):
        raw.extend(fn(result))
    raw.sort(key=lambda r: (r.checker, r.node.graph.name, r.node.uid,
                            render_path(r.path), r.message))
    explainer = None
    if witness:
        from ..explain import format_derivation, witness_explainer
        explainer = witness_explainer(result)
    findings: List[Finding] = []
    seen: Set[Tuple[str, ...]] = set()
    for r in raw:
        finding = Finding(
            checker=r.checker, flavor=result.flavor,
            function=r.node.graph.name,
            node=f"{r.node.kind}#{r.node.uid}",
            origin=r.node.origin or "",
            path=render_path(r.path), severity=r.severity,
            message=r.message)
        if finding.key() in seen:
            continue
        seen.add(finding.key())
        if explainer is not None and r.evidence is not None:
            output, pair = r.evidence
            if pair in explainer.result.solution.raw_pairs(output):
                finding.witness = format_derivation(
                    explainer.explain(output, pair))
        findings.append(finding)
    return findings


def findings_digest(findings: Iterable[Finding]) -> str:
    """Order-insensitive content hash of a finding set (witness-free),
    the cross-schedule / cross-jobs comparison primitive."""
    lines = sorted("|".join(f.key()) for f in findings)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def count_by_checker(findings: Iterable[Finding]) -> Dict[str, int]:
    """Per-checker finding counts (zero-filled for registered ids)."""
    counts = {name: 0 for name in REGISTRY.names()}
    for f in findings:
        counts[f.checker] = counts.get(f.checker, 0) + 1
    return counts
