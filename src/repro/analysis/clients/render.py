"""JSON-shaped payloads and text rendering for the client analyses.

``repro analyze --modref/--defuse/--deadstore`` used to print ad-hoc
``repr`` lines straight from the client objects; this module gives the
three clients one shared output contract instead:

* a *payload* function per client returning plain dicts/lists — JSON-
  serializable, deterministically ordered (functions alphabetically,
  locations by rendered path, operations by node key) — consumed by
  ``--format json`` and the serve layer alike;
* a *render* function per client turning that payload into the text
  lines ``--format text`` prints.

Rendering an access path here matches ``report.export.path_to_string``
and ``checkers.base.render_path`` byte-for-byte (the string contract
the goldens pin); the copy avoids importing the report layer from a
client module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...memory.access import AccessPath
from ..common import AnalysisResult
from ..depgraph import ReachingDefs, node_key
from .deadstore import find_dead_stores
from .modref import modref


def render_path(path: Optional[AccessPath]) -> str:
    """Stable uid-free rendering of an access path."""
    if path is None:
        return ""
    base = path.base.describe() if path.base is not None else "ε"
    return base + "".join(repr(op) for op in path.ops)


def modref_payload(result: AnalysisResult) -> List[Dict[str, object]]:
    """Per-procedure transitive mod/ref summaries, function-sorted."""
    info = modref(result)
    return [{"function": name,
             "mod": sorted(render_path(p) for p in info.mod_set(name)),
             "ref": sorted(render_path(p) for p in info.ref_set(name))}
            for name in sorted(result.program.functions)]


def defuse_payload(result: AnalysisResult) -> List[Dict[str, object]]:
    """Per-read reaching definitions, node-key-sorted.

    Definitions render as node keys (``function:update#uid``) or the
    :data:`~repro.analysis.depgraph.INITIAL` marker.
    """
    engine = ReachingDefs(result, call_site_sensitive=False)
    from ...ir.nodes import LookupNode

    rows = []
    for graph in result.program.functions.values():
        for node in graph.nodes:
            if not isinstance(node, LookupNode):
                continue
            definitions = sorted(
                d if isinstance(d, str) else node_key(d)
                for d in engine.reaching_definitions(node))
            rows.append({
                "read": node_key(node),
                "origin": node.origin or "",
                "locations": sorted(render_path(p)
                                    for p in engine.footprint(node)),
                "definitions": definitions,
            })
    return sorted(rows, key=lambda r: r["read"])


def deadstore_payload(result: AnalysisResult) -> Dict[str, object]:
    """Dead/unreachable writes plus the live/total counts."""
    report = find_dead_stores(result)

    def rows(nodes):
        return sorted(
            ({"write": node_key(n), "origin": n.origin or "",
              "targets": sorted(render_path(p)
                                for p in result.op_locations(n))}
             for n in nodes),
            key=lambda r: r["write"])

    return {"dead": rows(report.dead),
            "unreachable": rows(report.unreachable),
            "counts": {"dead": len(report.dead),
                       "unreachable": len(report.unreachable),
                       "live": report.live, "total": report.total}}


def clients_payload(result: AnalysisResult,
                    modref_wanted: bool = False,
                    defuse_wanted: bool = False,
                    deadstore_wanted: bool = False) -> Dict[str, object]:
    """The requested client sections."""
    payload: Dict[str, object] = {}
    if modref_wanted:
        payload["modref"] = modref_payload(result)
    if defuse_wanted:
        payload["defuse"] = defuse_payload(result)
    if deadstore_wanted:
        payload["deadstore"] = deadstore_payload(result)
    return payload


# -- text rendering --------------------------------------------------------


def render_modref_text(rows: List[Dict[str, object]]) -> List[str]:
    return [f"  {row['function']}: "
            f"mod={{{', '.join(row['mod'])}}} "
            f"ref={{{', '.join(row['ref'])}}}"
            for row in rows]


def render_defuse_text(rows: List[Dict[str, object]]) -> List[str]:
    lines = []
    for row in rows:
        where = f" at {row['origin']}" if row["origin"] else ""
        lines.append(f"  {row['read']}{where} "
                     f"reads {{{', '.join(row['locations'])}}} "
                     f"from {{{', '.join(row['definitions'])}}}")
    return lines


def render_deadstore_text(payload: Dict[str, object]) -> List[str]:
    counts = payload["counts"]
    lines = [f"  dead stores: {counts['dead']} dead, "
             f"{counts['unreachable']} unreachable, "
             f"{counts['live']} live of {counts['total']} writes"]
    for row in payload["dead"]:
        where = f" at {row['origin']}" if row["origin"] else ""
        lines.append(f"    dead: {row['write']}{where} "
                     f"-> {{{', '.join(row['targets'])}}}")
    for row in payload["unreachable"]:
        where = f" at {row['origin']}" if row["origin"] else ""
        lines.append(f"    unreachable: {row['write']}{where}")
    return lines


def render_clients_text(payload: Dict[str, object]) -> List[str]:
    """Text lines for every section present in ``payload``."""
    lines: List[str] = []
    if "modref" in payload:
        lines.extend(render_modref_text(payload["modref"]))
    if "defuse" in payload:
        lines.extend(render_defuse_text(payload["defuse"]))
    if "deadstore" in payload:
        lines.extend(render_deadstore_text(payload["deadstore"]))
    return lines
