"""Word-packed bitset kernels for the dense fact engine.

The dense engine of :mod:`repro.memory.facttable` encodes fact sets as
Python big-int bitsets.  Big ints are immutable: every join allocates
a fresh object, every decode walks the number a byte at a time in
Python, and nothing about the representation is addressable by a
vectorized kernel.  This module supplies the missing layer:

* :class:`PackedBits` — a fact set stored as a **fixed-width buffer of
  64-bit words** (numpy ``uint64``), sized by the owning table's
  interned-id universe and grown geometrically.  ``or_mask`` /
  ``and_not_mask`` / ``intersect_mask`` are in-place kernels: the join
  that used to reallocate an ever-wider big int mutates one buffer and
  hands back only the *delta*.  Narrow sets (below
  :data:`SWITCH_WORDS` words) stay in the big-int representation —
  a 40-word OR is a single C loop already, and the buffer only pays
  for itself once sets are wide enough for vector units to matter.
* ``decode_ids`` — the set-bit positions of a mask as one vectorized
  ``unpackbits``/``flatnonzero`` pass, replacing the per-byte Python
  loop of ``facttable.iter_bits`` on decode-heavy paths.
* ``scatter_ids`` — the inverse kernel: a bitset from a sequence of
  bit positions (vectorized ``packbits`` for large batches, a bit-OR
  loop for small ones).

Every kernel is **bit-identical** to its big-int counterpart — the
property tests in ``tests/memory/test_packedbits.py`` drive both
implementations over random masks, including zero and word-boundary
widths — so the engine can select a representation purely on cost.

When numpy is absent (or ``REPRO_NO_NUMPY=1`` is set, the test hook),
every entry point falls back to the plain big-int engine: the module
still imports, :data:`HAVE_NUMPY` is False, and behavior is unchanged
from the pre-packed representation.

numpy itself is imported on first use — the first dense decode,
vectorized scatter, or widen — not when this module loads.  Importing
numpy costs more than a warm analysis of a suite program, and no
suite program's sets reach the dense paths.
"""

from __future__ import annotations

import os
from importlib.util import find_spec
from typing import Iterable, List

WORD_BITS = 64

#: Test hook: set to a non-empty value (other than ``"0"``) to force
#: the big-int fallback engine even when numpy is importable.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

HAVE_NUMPY = (os.environ.get(NO_NUMPY_ENV, "") in ("", "0")
              and find_spec("numpy") is not None)

#: The numpy module once :func:`_numpy` has imported it.
_np = None


def _numpy():
    """numpy, imported on the first call (only when :data:`HAVE_NUMPY`)."""
    global _np
    if _np is None:
        import numpy
        _np = numpy
    return _np

#: A stored set narrower than this many words stays a big int; at or
#: beyond it, :class:`PackedBits` switches to the word buffer.  Big-int
#: ``|``/``& ~`` are single C loops — the buffer's win is avoiding the
#: per-join reallocation and feeding numpy kernels, which only pays
#: once sets span hundreds of words.
SWITCH_WORDS = 128

#: Id batches at or above this size scatter through ``packbits``;
#: smaller batches use a Python bit-OR loop (lower fixed overhead).
_SCATTER_VECTOR_MIN = 32

#: Masks with at most this many set bits decode with the lsb-peeling
#: loop; numpy's fixed per-call cost (buffer round-trip, unpackbits,
#: flatnonzero) only amortizes on denser masks.
_DECODE_VECTOR_MIN = 48

#: Bit positions set in each byte value (shared with facttable's
#: fallback decode loop).
_BYTE_BITS = tuple(tuple(bit for bit in range(8) if value >> bit & 1)
                   for value in range(256))


def words_for(nbits: int) -> int:
    """64-bit words needed to hold ``nbits`` bit positions."""
    return (nbits + WORD_BITS - 1) >> 6


def _decode_ids_sparse(mask: int) -> List[int]:
    """lsb-peeling decode: fastest when few bits are set."""
    out: List[int] = []
    append = out.append
    while mask:
        lsb = mask & -mask
        append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _decode_ids_py(mask: int) -> List[int]:
    if mask.bit_count() <= _DECODE_VECTOR_MIN:
        return _decode_ids_sparse(mask)
    out: List[int] = []
    append = out.append
    offset = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                append(offset + bit)
        offset += 8
    return out


def _decode_ids_np(mask: int) -> List[int]:
    nbytes = (mask.bit_length() + 7) // 8
    if not nbytes:
        return []
    np = _numpy()
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    # tolist() hands back plain Python ints: callers shift by these
    # positions (``1 << ident``), which would overflow numpy's int64.
    return np.flatnonzero(
        np.unpackbits(raw, bitorder="little")).tolist()


def _scatter_ids_py(ids: Iterable[int]) -> int:
    mask = 0
    for ident in ids:
        mask |= 1 << ident
    return mask


def _scatter_ids_np(ids) -> int:
    np = _numpy()
    ids = np.asarray(ids)
    n = len(ids)
    if not n:
        return 0
    if n < _SCATTER_VECTOR_MIN:
        mask = 0
        for ident in ids.tolist():
            mask |= 1 << ident
        return mask
    top = int(ids.max())
    flags = np.zeros(((top >> 3) + 1) << 3, dtype=np.uint8)
    flags[ids] = 1
    return int.from_bytes(
        np.packbits(flags, bitorder="little").tobytes(), "little")


if HAVE_NUMPY:
    def decode_ids(mask: int) -> List[int]:
        """Set-bit positions of ``mask``, ascending.  Sparse masks
        peel bits in Python (no fixed numpy cost); dense masks take
        the vectorized unpackbits path."""
        if mask.bit_count() <= _DECODE_VECTOR_MIN:
            return _decode_ids_sparse(mask)
        return _decode_ids_np(mask)

    def scatter_ids(ids) -> int:
        """Bitset with exactly the given bit positions set."""
        return _scatter_ids_np(ids)
else:
    decode_ids = _decode_ids_py
    scatter_ids = _scatter_ids_py


class PackedBits:
    """One fact set: big int while narrow, u64 word buffer once wide.

    The public currency stays Python ints (compact, hashable, pickle-
    friendly): ``or_mask`` takes and returns int masks, and
    ``to_mask`` renders the stored set (cached between mutations).
    Only the *storage* switches representation, so every kernel is
    drop-in bit-identical with the pure big-int engine.
    """

    __slots__ = ("_int", "_words", "_nwords", "_cached")

    def __init__(self, mask: int = 0) -> None:
        self._int = mask       # canonical while _words is None
        self._words = None     # numpy uint64 buffer once wide
        self._nwords = 0       # words in use (buffer may be larger)
        self._cached = mask    # int rendering; None when stale

    # -- representation management ----------------------------------------

    def _widen(self, nwords: int) -> None:
        """Move to (or grow) the word buffer, geometrically.  Every
        packed-mode path below runs after this, so numpy is loaded."""
        np = _numpy()
        capacity = max(nwords, SWITCH_WORDS)
        if self._words is not None:
            capacity = max(capacity, 2 * len(self._words))
            used = self._words[:self._nwords]
            buf = np.zeros(capacity, dtype=np.uint64)
            buf[:self._nwords] = used
        else:
            capacity = max(capacity, 2 * nwords)
            buf = np.zeros(capacity, dtype=np.uint64)
            if self._int:
                existing = words_for(self._int.bit_length())
                buf[:existing] = np.frombuffer(
                    self._int.to_bytes(existing * 8, "little"),
                    dtype="<u8")
                self._nwords = existing
            self._int = 0
        self._words = buf

    @property
    def is_packed(self) -> bool:
        return self._words is not None

    def allocated_words(self) -> int:
        """Words of buffer backing this set (0 in big-int mode)."""
        return len(self._words) if self._words is not None else 0

    def storage_words(self) -> int:
        """64-bit words this set occupies: the buffer's allocation in
        packed mode, the spanned width in big-int mode (telemetry)."""
        if self._words is not None:
            return len(self._words)
        return words_for(self._int.bit_length())

    # -- kernels ------------------------------------------------------------

    def or_mask(self, mask: int) -> int:
        """Join ``mask`` into the set; return the delta of new bits.

        The packed path mutates the buffer in place — no reallocation
        proportional to the stored width — and materializes only the
        (typically narrow) delta as an int.
        """
        if not mask:
            return 0
        if self._words is None:
            bits = self._int
            new = mask & ~bits
            if not new:
                return 0
            bits |= new
            if HAVE_NUMPY and bits.bit_length() > SWITCH_WORDS * WORD_BITS:
                self._int = bits
                self._cached = bits
                self._widen(words_for(bits.bit_length()))
                return new
            self._int = bits
            self._cached = bits
            return new
        nwords = words_for(mask.bit_length())
        if nwords > len(self._words):
            self._widen(nwords)
        incoming = _np.frombuffer(mask.to_bytes(nwords * 8, "little"),
                                  dtype="<u8").view(_np.uint64)
        view = self._words[:nwords]
        new = incoming & ~view
        if not new.any():
            return 0
        view |= new
        self._nwords = max(self._nwords, nwords)
        self._cached = None
        return int.from_bytes(new.tobytes(), "little")

    def and_not_mask(self, mask: int) -> int:
        """The stored set minus ``mask`` (pure; no mutation)."""
        return self.to_mask() & ~mask

    def intersect_mask(self, mask: int) -> int:
        """The stored set intersected with ``mask`` (pure)."""
        if self._words is None:
            return self._int & mask
        nwords = min(words_for(mask.bit_length()), self._nwords)
        if not nwords:
            return 0
        incoming = _np.frombuffer(mask.to_bytes(nwords * 8, "little"),
                                  dtype="<u8").view(_np.uint64)
        out = incoming & self._words[:nwords]
        return int.from_bytes(out.tobytes(), "little")

    def contains_bit(self, bit_index: int) -> bool:
        if self._words is None:
            return bool(self._int >> bit_index & 1)
        word = bit_index >> 6
        if word >= self._nwords:
            return False
        return bool(int(self._words[word]) >> (bit_index & 63) & 1)

    # -- views --------------------------------------------------------------

    def to_mask(self) -> int:
        """The stored set as a big int (cached until the next join)."""
        if self._cached is None:
            self._cached = int.from_bytes(
                self._words[:self._nwords].tobytes(), "little")
        return self._cached

    def popcount(self) -> int:
        return self.to_mask().bit_count()

    def bit_length(self) -> int:
        return self.to_mask().bit_length()

    def iter_ids(self) -> List[int]:
        return decode_ids(self.to_mask())

    def __bool__(self) -> bool:
        if self._words is None:
            return bool(self._int)
        return bool(self.to_mask())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedBits):
            return self.to_mask() == other.to_mask()
        if isinstance(other, int):
            return self.to_mask() == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        return hash(self.to_mask())

    def __repr__(self) -> str:
        kind = "packed" if self._words is not None else "int"
        return f"<PackedBits {kind} {self.popcount()} bits>"

    # -- pickling ------------------------------------------------------------

    def __reduce__(self):
        # Ship the int rendering: portable across numpy-less readers,
        # and the receiver re-widens lazily on its first wide join.
        return (PackedBits, (self.to_mask(),))
