"""Dense integer ids for interned facts, and the bitset codec.

The solvers' hot path is set union/membership over points-to pairs.
Interning already made those identity-based; this module goes one step
further and assigns every :class:`~repro.memory.pairs.PointsToPair`
(and every :class:`~repro.memory.access.AccessPath`) a *dense* integer
id, per :class:`FactTable`.  A set of facts then becomes a Python
big-int **bitset** — bit ``i`` set iff the fact with id ``i`` is in the
set — and the solver's join/meet operations become single ``|``/``& ~``
machine loops over 30-bit digits instead of per-object hash probes.

Id assignment order is whatever order the analysis first touches each
fact; nothing downstream may depend on it.  The decoding helpers map
bitsets back to the interned objects, which is how the object-level
query API of ``PointsToSolution`` stays intact on top of the bitset
representation.

One table is attached per :class:`~repro.ir.graph.Program` (see
:meth:`FactTable.for_program`), so repeated analyses of the same
program — CI then CS, or benchmark repeats — reuse the same ids and
the encode dictionaries stay warm.  Tables pickle with their insertion
order preserved, so a solution shipped across a process boundary
decodes to the same facts.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from .access import AccessPath
from .pairs import PointsToPair, direct as _direct, pair as _make_pair

#: Masks with at most this many set bits decode by peeling the lowest
#: set bit; denser masks walk the bytes through :data:`_BYTE_BITS`.
_PEEL_MAX_BITS = 48

#: Bit positions set in each byte value, precomputed for the bytewise
#: decode of dense masks.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256))


def decode_ids(mask: int) -> List[int]:
    """Set-bit positions of ``mask``, ascending: the one bitset
    decoder every table view and translation kernel goes through."""
    out: List[int] = []
    append = out.append
    if mask.bit_count() <= _PEEL_MAX_BITS:
        while mask:
            lsb = mask & -mask
            append(lsb.bit_length() - 1)
            mask ^= lsb
        return out
    offset = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                append(offset + bit)
        offset += 8
    return out


def popcount(mask: int) -> int:
    """Number of set bits (facts) in a bitset."""
    return mask.bit_count()


class _Translation:
    """One memoized fact translation, keyed by an interned referent.

    A transfer function like lookup or update maps each *individual*
    fact id to a fixed emitted bitset — a pure function of interned
    ids, so it never changes once computed.  ``bits[id]`` records that
    per-id image (0 when the fact does not translate), ``seen`` the ids
    classified so far, and ``memo`` caches whole query masks → emitted
    unions, so a repeated query (the common case: deterministic
    schedules replay the same mask trajectory on every warm run of a
    program) costs one dict probe instead of a decode loop.
    """

    __slots__ = ("seen", "bits", "memo")

    def __init__(self) -> None:
        self.seen = 0
        self.bits: Dict[int, int] = {}
        self.memo: Dict[int, int] = {}


def bitset_words(mask: int) -> int:
    """64-bit words a bitset spans (its highest set bit rounds up)."""
    return (mask.bit_length() + 63) >> 6


class FactTable:
    """Per-program dense ids for points-to pairs and access paths.

    ``pair_id``/``path_id`` assign ids on first sight (dense, starting
    at 0); ``pair_of``/``path_of`` invert them.  ``decode_calls``
    counts bitset→object materializations — the telemetry counter that
    shows how often the lazy decoding view is actually exercised.
    """

    __slots__ = ("_pair_ids", "_pair_objects", "_path_ids", "_path_objects",
                 "_base_masks", "_direct_mask", "_target_path_ids",
                 "decode_calls", "kernel_calls",
                 "_lookup_tr", "_write_tr", "_kill_tr", "_extend_tr",
                 "_extract_tr", "_direct_refs")

    #: Key under which a program's table lives in ``Program.extras``.
    EXTRAS_KEY = "fact_table"

    def __init__(self) -> None:
        self._pair_ids: Dict[PointsToPair, int] = {}
        self._pair_objects: List[PointsToPair] = []
        self._path_ids: Dict[AccessPath, int] = {}
        self._path_objects: List[AccessPath] = []
        #: Global index: path base location → bitset of every pair id
        #: whose path is rooted at that base.  Maintained at id
        #: assignment (once per distinct fact, ever), it lets transfer
        #: functions slice any fact bitset down to the pairs a location
        #: could alias — ``mask & base_mask(base)`` — without decoding.
        self._base_masks: Dict[object, int] = {}
        #: Bitset of the *direct* pair ids (empty-offset path: the
        #: value itself points at the referent), and per pair id the
        #: path id of its referent (-1 for non-direct pairs).  Together
        #: they make ``targets``/``op_locations`` answerable as pure
        #: bitset arithmetic — see :meth:`targets_mask`.
        self._direct_mask = 0
        self._target_path_ids: List[int] = []
        self.decode_calls = 0
        #: Translation-kernel invocations — queries that reached the
        #: table's kernels (classification or mask aggregation).  The
        #: handlers' own memo fast path does not count: a warm solve
        #: showing few kernel calls ran almost entirely on memo hits.
        self.kernel_calls = 0
        # Translation caches, keyed by the interned referent (or access
        # operator) that parameterizes the transfer function.  Pure
        # functions of interned ids: shared by every run over this
        # program, dropped (and lazily rebuilt) across pickling.
        self._lookup_tr: Dict[AccessPath, _Translation] = {}
        self._write_tr: Dict[AccessPath, _Translation] = {}
        self._kill_tr: Dict[AccessPath, _Translation] = {}
        self._extend_tr: Dict[object, _Translation] = {}
        self._extract_tr: Dict[object, _Translation] = {}
        #: Exact-mask memo for :meth:`direct_referents` (sound to key
        #: by mask alone: an id's directness is fixed at interning, and
        #: a mask can only contain already-interned ids).
        self._direct_refs: Dict[int, List[AccessPath]] = {}

    @classmethod
    def for_program(cls, program) -> "FactTable":
        """The program's shared table, created on first request."""
        table = program.extras.get(cls.EXTRAS_KEY)
        if not isinstance(table, cls):
            table = cls()
            program.extras[cls.EXTRAS_KEY] = table
        return table

    # -- pair ids ----------------------------------------------------------

    def pair_id(self, pair: PointsToPair) -> int:
        ident = self._pair_ids.get(pair)
        if ident is None:
            ident = len(self._pair_objects)
            self._pair_ids[pair] = ident
            self._pair_objects.append(pair)
            base = pair.path.base
            masks = self._base_masks
            masks[base] = masks.get(base, 0) | (1 << ident)
            if pair.is_direct:
                self._direct_mask |= 1 << ident
                self._target_path_ids.append(self.path_id(pair.referent))
            else:
                self._target_path_ids.append(-1)
        return ident

    def base_mask(self, base: object) -> int:
        """Bitset of every known pair whose path is rooted at ``base``."""
        return self._base_masks.get(base, 0)

    @property
    def direct_mask(self) -> int:
        """Bitset of every known direct (empty-offset) pair id."""
        return self._direct_mask

    def targets_mask(self, mask: int) -> int:
        """Path-id bitset of the direct referents among ``mask``'s
        pairs: ``targets``/``op_locations`` without materializing a
        single pair or path object.  Decode the result with
        :meth:`decode_paths` only when objects are actually needed."""
        out = 0
        ids = self._target_path_ids
        for ident in decode_ids(mask & self._direct_mask):
            out |= 1 << ids[ident]
        return out

    def direct_referents(self, mask: int) -> List[AccessPath]:
        """The referent paths of ``mask``'s direct pairs, via the
        target-path index — no pair objects decoded, ``decode_calls``
        untouched.  This is the location set a lookup/update input
        denotes, and the dense handlers' replacement for filtering a
        decoded pair list on ``path is EMPTY_OFFSET``.  Memoized per
        exact mask; callers must not mutate the returned list."""
        refs = self._direct_refs.get(mask)
        if refs is None:
            ids = self._target_path_ids
            paths = self._path_objects
            refs = [paths[ids[ident]]
                    for ident in decode_ids(mask & self._direct_mask)]
            self._direct_refs[mask] = refs
        return refs

    # -- translation kernels ------------------------------------------------
    #
    # Each transfer function's per-fact image is a pure function of
    # interned ids; these kernels classify each id once (ever, per
    # table) and serve every later query from the exact-mask memo.

    def _translate(self, cache: Dict, key, mask: int,
                   classify: Callable) -> int:
        if not mask:
            return 0
        tr = cache.get(key)
        if tr is None:
            tr = cache.setdefault(key, _Translation())
        self.kernel_calls += 1
        hit = tr.memo.get(mask)
        if hit is not None:
            return hit
        new = mask & ~tr.seen
        if new:
            classify(tr, new, key)
            tr.seen |= new
        bits = tr.bits
        emit = 0
        for ident in decode_ids(mask):
            emit |= bits[ident]
        tr.memo[mask] = emit
        return emit

    def _memo_of(self, cache: Dict, key) -> Dict[int, int]:
        """The exact-mask memo dict of one translation — handlers hold
        these directly so a warm-run query is a single dict probe with
        no call through the table.  Entries are pure functions of the
        (mask, key) pair and never change once written, so reading the
        live dict is safe even while classification grows it."""
        tr = cache.get(key)
        if tr is None:
            tr = cache.setdefault(key, _Translation())
        return tr.memo

    def lookup_memo(self, referent: AccessPath) -> Dict[int, int]:
        return self._memo_of(self._lookup_tr, referent)

    def write_memo(self, referent: AccessPath) -> Dict[int, int]:
        return self._memo_of(self._write_tr, referent)

    def kill_memo(self, referent: AccessPath) -> Dict[int, int]:
        return self._memo_of(self._kill_tr, referent)

    def extend_memo(self, op: object) -> Dict[int, int]:
        return self._memo_of(self._extend_tr, op)

    def extract_memo(self, op: object) -> Dict[int, int]:
        return self._memo_of(self._extract_tr, op)

    def translate_lookup(self, referent: AccessPath, mask: int) -> int:
        """Pairs emitted by dereferencing location ``referent`` against
        the store pairs in ``mask`` (CWZ90 lookup: prefix-subtract the
        referent from each dominated store path)."""
        return self._translate(self._lookup_tr, referent, mask,
                               self._classify_lookup)

    def _classify_lookup(self, tr: _Translation, new_mask: int,
                         referent: AccessPath) -> None:
        r_ops = referent.ops
        n = len(r_ops)
        bits = tr.bits
        objects = self._pair_objects
        for ident in decode_ids(new_mask):
            sp = objects[ident]
            sp_ops = sp.path.ops
            # tuple slice compare == is_prefix (a short slice never
            # equals a longer r_ops)
            if sp_ops[:n] == r_ops:
                bits[ident] = 1 << self.pair_id(_make_pair(
                    AccessPath(None, sp_ops[n:]), sp.referent))
            else:
                bits[ident] = 0

    def translate_writes(self, referent: AccessPath, mask: int) -> int:
        """Store pairs written by storing the value pairs in ``mask``
        into location ``referent`` (path-append under the referent)."""
        return self._translate(self._write_tr, referent, mask,
                               self._classify_writes)

    def _classify_writes(self, tr: _Translation, new_mask: int,
                         referent: AccessPath) -> None:
        bits = tr.bits
        objects = self._pair_objects
        for ident in decode_ids(new_mask):
            vp = objects[ident]
            bits[ident] = 1 << self.pair_id(_make_pair(
                referent.append(vp.path), vp.referent))

    def kill_mask(self, referent: AccessPath, mask: int) -> int:
        """The subset of ``mask``'s store pairs strongly updated by
        location ``referent`` (callers pre-slice to the same-base
        candidates; a bare referent kills that whole slice without a
        kernel query)."""
        return self._translate(self._kill_tr, referent, mask,
                               self._classify_kill)

    def _classify_kill(self, tr: _Translation, new_mask: int,
                       referent: AccessPath) -> None:
        r_ops = referent.ops
        n = len(r_ops)
        bits = tr.bits
        objects = self._pair_objects
        for ident in decode_ids(new_mask):
            if objects[ident].path.ops[:n] == r_ops:
                bits[ident] = 1 << ident
            else:
                bits[ident] = 0

    def translate_extend(self, op: object, mask: int) -> int:
        """FIELD/INDEX primop image: each direct pair's referent
        extended by one access operator."""
        return self._translate(self._extend_tr, op, mask,
                               self._classify_extend)

    def _classify_extend(self, tr: _Translation, new_mask: int,
                         op: object) -> None:
        bits = tr.bits
        objects = self._pair_objects
        for ident in decode_ids(new_mask):
            p = objects[ident]
            if p.is_direct:
                bits[ident] = 1 << self.pair_id(
                    _direct(p.referent.extend(op)))
            else:
                bits[ident] = 0

    def translate_extract(self, op: object, mask: int) -> int:
        """EXTRACT primop image: peel ``op`` off each value-offset
        pair whose path starts with it."""
        return self._translate(self._extract_tr, op, mask,
                               self._classify_extract)

    def _classify_extract(self, tr: _Translation, new_mask: int,
                          op: object) -> None:
        bits = tr.bits
        objects = self._pair_objects
        for ident in decode_ids(new_mask):
            p = objects[ident]
            path = p.path
            if path.base is None and path.ops and path.ops[0] is op:
                bits[ident] = 1 << self.pair_id(_make_pair(
                    AccessPath(None, path.ops[1:]), p.referent))
            else:
                bits[ident] = 0

    def pair_of(self, ident: int) -> PointsToPair:
        return self._pair_objects[ident]

    def pair_count(self) -> int:
        return len(self._pair_objects)

    def pair_mask(self, pairs: Iterable[PointsToPair]) -> int:
        """Encode an iterable of pairs as a bitset."""
        mask = 0
        for pair in pairs:
            mask |= 1 << self.pair_id(pair)
        return mask

    def decode_pairs(self, mask: int) -> List[PointsToPair]:
        """Materialize a bitset back into its pair objects, in id
        order."""
        self.decode_calls += 1
        objects = self._pair_objects
        return [objects[ident] for ident in decode_ids(mask)]

    def decode_items(self, mask: int) -> List[Tuple[int, PointsToPair]]:
        """Like :meth:`decode_pairs` but keeps each pair's id."""
        self.decode_calls += 1
        objects = self._pair_objects
        return [(ident, objects[ident]) for ident in decode_ids(mask)]

    # -- path ids ----------------------------------------------------------

    def path_id(self, path: AccessPath) -> int:
        ident = self._path_ids.get(path)
        if ident is None:
            ident = len(self._path_objects)
            self._path_ids[path] = ident
            self._path_objects.append(path)
        return ident

    def path_of(self, ident: int) -> AccessPath:
        return self._path_objects[ident]

    def path_count(self) -> int:
        return len(self._path_objects)

    def path_mask(self, paths: Iterable[AccessPath]) -> int:
        mask = 0
        for path in paths:
            mask |= 1 << self.path_id(path)
        return mask

    def decode_paths(self, mask: int) -> List[AccessPath]:
        self.decode_calls += 1
        return [self._path_objects[ident] for ident in decode_ids(mask)]

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        # The object lists alone determine the table (ids are list
        # positions); the encode dicts rebuild against the re-interned
        # objects on load.  Translation caches are deliberately
        # dropped: pure functions of ids, they rebuild lazily.
        return {"pairs": self._pair_objects, "paths": self._path_objects,
                "decode_calls": self.decode_calls,
                "kernel_calls": self.kernel_calls}

    def __setstate__(self, state: dict) -> None:
        self._pair_objects = state["pairs"]
        self._path_objects = state["paths"]
        self._pair_ids = {pair: ident
                          for ident, pair in enumerate(self._pair_objects)}
        self._path_ids = {path: ident
                          for ident, path in enumerate(self._path_objects)}
        self._base_masks = {}
        self._direct_mask = 0
        self._target_path_ids = []
        for ident, pair in enumerate(self._pair_objects):
            base = pair.path.base
            self._base_masks[base] = \
                self._base_masks.get(base, 0) | (1 << ident)
            if pair.is_direct:
                self._direct_mask |= 1 << ident
                self._target_path_ids.append(self.path_id(pair.referent))
            else:
                self._target_path_ids.append(-1)
        self.decode_calls = state.get("decode_calls", 0)
        self.kernel_calls = state.get("kernel_calls", 0)
        self._lookup_tr = {}
        self._write_tr = {}
        self._kill_tr = {}
        self._extend_tr = {}
        self._extract_tr = {}
        self._direct_refs = {}

    def __repr__(self) -> str:
        return (f"<FactTable {len(self._pair_objects)} pairs, "
                f"{len(self._path_objects)} paths>")
