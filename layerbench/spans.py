"""Span trees of the traced run: nesting, self time and per-layer sums.

A span is one timed call into a layer: ``name``, ``start`` and ``end``
(``time.monotonic_ns``, one clock for every process on the host) and
the counters read from the call's return value.  Spans are recorded in
the driver (one root span per op), in the traced program process and
in forked pool workers; they are joined per op here, by time: every op
has one operation in flight, so a span belongs to the op whose window
holds it, and its parent is the innermost span that contains it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  The self times of an op's spans sum
to the op's wall time; :func:`reconcile` reports the part no named
layer accounts for.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: int
    end: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class LayerTotals:
    """One layer summed over a set of ops."""

    calls: int = 0
    self_ns: int = 0
    inclusive_ns: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    def add_counters(self, attrs: Dict[str, object]) -> None:
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                self.counters[key] = self.counters.get(key, 0) + value


def covered(interval: Tuple[int, int],
            parts: Iterable[Tuple[int, int]]) -> int:
    """Nanoseconds of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a: Optional[int] = None
    cur_b = 0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


@dataclass
class OpTree:
    """One op's spans, nested by containment under its root."""

    root: Span
    spans: List[Span]
    children: Dict[int, List[int]]   # span index → child indices (-1 = root)
    outermost: List[bool]            # no ancestor of the same name
    misnested_ns: int = 0            # child time outside its parent

    def self_ns(self, index: int) -> int:
        span = self.root if index < 0 else self.spans[index]
        kids = [(self.spans[k].start, self.spans[k].end)
                for k in self.children.get(index, ())]
        return span.duration - covered((span.start, span.end), kids)


def nest(root: Span, spans: Sequence[Span]) -> OpTree:
    """Nest ``spans`` (all inside ``root``'s window) by containment.

    Ordered by start, longer first on ties, each span's parent is the
    innermost open span that has not ended before it starts.  A span
    that outlives its parent is still that parent's child; the part
    outside is counted as misnested (a clock or attribution error).
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].start, -spans[i].end))
    ordered = [spans[i] for i in order]
    children: Dict[int, List[int]] = {}
    outermost = [True] * len(ordered)
    stack: List[int] = []
    misnested = 0
    for index, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end <= span.start:
            stack.pop()
        parent = stack[-1] if stack else -1
        parent_span = root if parent < 0 else ordered[parent]
        if span.end > parent_span.end:
            misnested += span.end - parent_span.end
        children.setdefault(parent, []).append(index)
        outermost[index] = all(ordered[a].name != span.name for a in stack)
        stack.append(index)
    return OpTree(root, ordered, children, outermost, misnested)


def layer_totals(trees: Iterable[OpTree], root_layer: str
                 ) -> Dict[str, LayerTotals]:
    """Per-layer calls, self time, inclusive time and counters.

    ``calls``, inclusive time and counters come from a layer's
    outermost spans only, so a public function wrapping its own
    class's ``run`` (both traced under one name) counts once.  The
    root span's self time goes to ``root_layer``.
    """
    layers: Dict[str, LayerTotals] = {}
    for tree in trees:
        root = layers.setdefault(root_layer, LayerTotals())
        root.calls += 1
        root.self_ns += tree.self_ns(-1)
        root.inclusive_ns += tree.root.duration
        for index, span in enumerate(tree.spans):
            layer = layers.setdefault(span.name, LayerTotals())
            layer.self_ns += tree.self_ns(index)
            if tree.outermost[index]:
                layer.calls += 1
                layer.inclusive_ns += span.duration
                layer.add_counters(span.attrs)
    return layers


def assign_to_ops(windows: Sequence[Tuple[int, int]],
                  spans: Iterable[Span]) -> List[List[Span]]:
    """Group spans by the op window that contains their start; spans
    outside every window (set-up, idle time) are dropped."""
    starts = [w[0] for w in windows]
    grouped: List[List[Span]] = [[] for _ in windows]
    for span in spans:
        i = bisect.bisect_right(starts, span.start) - 1
        if i >= 0 and span.start < windows[i][1]:
            grouped[i].append(span)
    return grouped


def reconcile(trees: Sequence[OpTree], layers: Dict[str, LayerTotals],
              unattributed_layers: Sequence[str]) -> Dict[str, float]:
    """Share of op wall time no named layer accounts for.

    ``unattributed_layers`` name the self times that belong to no layer
    of the benchmark's table (glue between traced calls); misnested
    time counts as unattributed too.
    """
    wall = sum(tree.root.duration for tree in trees)
    loose = sum(layers[name].self_ns for name in unattributed_layers
                if name in layers)
    loose += sum(tree.misnested_ns for tree in trees)
    return {"wall_ns": wall, "unattributed_ns": loose,
            "unattributed_pct": 100.0 * loose / wall if wall else 0.0}
