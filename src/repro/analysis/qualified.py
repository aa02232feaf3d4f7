"""Qualified points-to pairs and assumption sets (paper Section 4.1).

A *qualified pair* is an ordinary points-to pair together with a set of
assumptions, each of which is a (formal parameter output, points-to
pair) — the pair must hold on that formal at entry to the enclosing
procedure for the qualified pair to hold.  For example,

    ((a, c), {(s, (a, b)), (s, (b, c))})

reads: "``a`` points to ``c`` on this output if, on entry to this
procedure, ``a`` points to ``b`` in formal ``s`` and ``b`` points to
``c`` in formal ``s``".  Assumptions are not restricted to store
formals: ``((ε, a), {(f, (ε, a))})`` says the output has pointer value
``a`` when formal ``f`` does.

The *subsumption rule* (Section 4.2) is the one optimization that is
purely representational: a qualified pair ``(p, B)`` reaching an output
where ``(p, A)`` already holds may be discarded whenever ``A ⊆ B`` — if
``p`` already holds under the weaker assumption set there is no need to
store or process the stronger one.  :class:`QualifiedSolution` keeps,
per output and plain pair, an antichain of minimal assumption sets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..memory.pairs import PointsToPair
from ..ir.nodes import OutputPort
from .common import PointsToSolution

#: One assumption: this pair must hold on this formal output at entry.
Assumption = Tuple[OutputPort, PointsToPair]
AssumptionSet = FrozenSet[Assumption]

EMPTY_ASSUMPTIONS: AssumptionSet = frozenset()


class QualifiedPair:
    """An (ordinary pair, assumption set) fact flowing through the CS
    analysis.  Plain value object; equality is structural."""

    __slots__ = ("pair", "assumptions")

    def __init__(self, pair: PointsToPair,
                 assumptions: AssumptionSet = EMPTY_ASSUMPTIONS) -> None:
        self.pair = pair
        self.assumptions = assumptions

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QualifiedPair)
                and self.pair is other.pair
                and self.assumptions == other.assumptions)

    def __hash__(self) -> int:
        return hash((self.pair, self.assumptions))

    def __repr__(self) -> str:
        if not self.assumptions:
            return f"{self.pair!r} [unconditional]"
        parts = ", ".join(f"{f.node.graph.name}.{f.name}:{p!r}"
                          for f, p in sorted(
                              self.assumptions,
                              key=lambda a: (a[0].node.uid, a[0].name,
                                             repr(a[1]))))
        return f"{self.pair!r} [{parts}]"


class AssumptionAntichain:
    """Minimal assumption sets under which one plain pair holds.

    Internally the chain stores whole :class:`QualifiedPair` objects
    (all sharing the same plain pair) so that iterating a solution can
    hand back the stored facts instead of allocating fresh wrappers —
    the CS solver re-reads qualified pairs far more often than it
    inserts them.  Iteration still yields the assumption sets.

    Subsumption tests run in the bitset domain: each stored set also
    carries a mask over dense assumption ids (interned per solution,
    see :meth:`QualifiedSolution.assumption_mask`), and ``A ⊆ B``
    becomes ``a_mask & b_mask == a_mask`` — one big-int AND per stored
    set instead of a frozenset subset walk.
    """

    __slots__ = ("quals", "masks", "_ids")

    def __init__(self) -> None:
        self.quals: List[QualifiedPair] = []
        self.masks: List[int] = []
        #: Local interner, only for standalone chains (``add``); chains
        #: inside a QualifiedSolution always receive precomputed masks.
        self._ids: Optional[Dict[Assumption, int]] = None

    def add_qualified(self, qp: QualifiedPair,
                      mask: Optional[int] = None) -> bool:
        """Insert applying the subsumption rule.

        Returns False (and stores nothing) when an existing set is a
        subset of ``qp.assumptions``; otherwise removes existing
        supersets, stores ``qp``, and returns True.  ``mask`` is the
        candidate's assumption bitset; omitted, it is computed against
        the chain's own interner.
        """
        if mask is None:
            mask = self._local_mask(qp.assumptions)
        masks = self.masks
        for existing in masks:
            if existing & mask == existing:
                return False
        keep = [i for i, existing in enumerate(masks)
                if existing & mask != mask]
        if len(keep) != len(masks):
            self.quals = [self.quals[i] for i in keep]
            self.masks = [masks[i] for i in keep]
        self.quals.append(qp)
        self.masks.append(mask)
        return True

    def add(self, candidate: AssumptionSet) -> bool:
        """Insert a bare assumption set (kept for direct antichain use)."""
        return self.add_qualified(QualifiedPair(None, candidate))

    def _local_mask(self, assumptions: AssumptionSet) -> int:
        ids = self._ids
        if ids is None:
            ids = self._ids = {}
        mask = 0
        for assumption in assumptions:
            ident = ids.get(assumption)
            if ident is None:
                ident = len(ids)
                ids[assumption] = ident
            mask |= 1 << ident
        return mask

    def __iter__(self) -> Iterator[AssumptionSet]:
        for qp in self.quals:
            yield qp.assumptions

    def __len__(self) -> int:
        return len(self.quals)


class QualifiedSolution:
    """Per-output qualified points-to sets with subsumption.

    Assumptions are interned to dense ids solution-wide, so every
    antichain's subsumption tests share one id space and a qualified
    pair re-added on a different output re-encodes to the same mask.
    """

    def __init__(self) -> None:
        self._pairs: Dict[OutputPort, Dict[PointsToPair, AssumptionAntichain]] = {}
        self._assumption_ids: Dict[Assumption, int] = {}

    def assumption_mask(self, assumptions: AssumptionSet) -> int:
        """Encode an assumption set as a bitset over solution-wide ids."""
        ids = self._assumption_ids
        mask = 0
        for assumption in assumptions:
            ident = ids.get(assumption)
            if ident is None:
                ident = len(ids)
                ids[assumption] = ident
            mask |= 1 << ident
        return mask

    def ordered(self, assumptions: AssumptionSet) -> List[Assumption]:
        """``assumptions`` in interning order.  A frozenset of
        identity-hashed ports and pairs iterates in memory-address
        order; this order follows the run alone.  Every assumption is
        interned as a singleton (``_into_formal``) before any larger
        set holds it, so every id exists by the time a set is read."""
        return sorted(assumptions, key=self._assumption_ids.__getitem__)

    def add(self, output: OutputPort, qp: QualifiedPair) -> bool:
        by_pair = self._pairs.get(output)
        if by_pair is None:
            by_pair = {}
            self._pairs[output] = by_pair
        chain = by_pair.get(qp.pair)
        if chain is None:
            chain = AssumptionAntichain()
            by_pair[qp.pair] = chain
        return chain.add_qualified(qp, self.assumption_mask(qp.assumptions))

    # -- queries ------------------------------------------------------------

    def plain_pairs(self, output: OutputPort) -> Set[PointsToPair]:
        """The assumption-stripped pair set on an output."""
        return set(self._pairs.get(output, ()))

    def assumption_sets(self, output: OutputPort,
                        pair: PointsToPair) -> List[AssumptionSet]:
        by_pair = self._pairs.get(output)
        if by_pair is None:
            return []
        chain = by_pair.get(pair)
        return list(chain) if chain is not None else []

    def qualified_pairs(self, output: OutputPort) -> Iterator[QualifiedPair]:
        for chain in self._pairs.get(output, {}).values():
            yield from chain.quals

    def outputs(self) -> Iterator[OutputPort]:
        return iter(self._pairs)

    def total_plain_pairs(self) -> int:
        return sum(len(by_pair) for by_pair in self._pairs.values())

    def total_qualified_pairs(self) -> int:
        return sum(len(chain)
                   for by_pair in self._pairs.values()
                   for chain in by_pair.values())

    def max_assumption_set_size(self) -> int:
        sizes = (len(s)
                 for by_pair in self._pairs.values()
                 for chain in by_pair.values()
                 for s in chain)
        return max(sizes, default=0)

    def strip(self, table=None) -> PointsToSolution:
        """Section 4.1's final step: drop assumption sets, dedupe.

        ``table`` (a :class:`~repro.memory.facttable.FactTable`) lets
        the caller encode the stripped solution against the program's
        shared id space; omitted, the solution gets a private table.

        Each output's plain pairs are encoded into one bitset and
        joined with a single word-packed :meth:`~repro.analysis.common.
        PointsToSolution.join_mask` call, rather than one big-int
        reallocation per pair.
        """
        solution = PointsToSolution(table)
        pair_id = solution.table.pair_id
        for output, by_pair in self._pairs.items():
            mask = 0
            for pair in by_pair:
                mask |= 1 << pair_id(pair)
            solution.join_mask(output, mask)
        return solution
