"""Unit tests for the dense-id fact table and bitset helpers."""

import pickle
import random

import pytest

from repro.memory.access import INDEX, FieldOp, make_path
from repro.memory.base import global_location, heap_location
from repro.memory.facttable import (
    FactTable,
    bitset_words,
    decode_ids,
    popcount,
)
from repro.memory.pairs import pair

# Base-locations are identity-keyed (one object per allocation site),
# so the test universe shares a fixed pair of them.
G = global_location("g")
H = heap_location("h")


def _sample_pairs():
    gp = make_path(G, ())
    gx = make_path(G, (FieldOp("S", "x"),))
    hp = make_path(H, ())
    hi = make_path(H, (INDEX,))
    return [pair(gp, hp), pair(gx, hp), pair(hp, gp), pair(hi, gx)]


def random_mask(rng: random.Random, nbits: int, density: float) -> int:
    """A random bitset over ``nbits`` positions at roughly ``density``."""
    if nbits <= 0:
        return 0
    count = max(0, int(nbits * density))
    mask = 0
    for _ in range(count):
        mask |= 1 << rng.randrange(nbits)
    return mask


#: Bit widths exercising zero, sub-word, exact 64-bit word boundaries,
#: and masks hundreds of words wide.
WIDTHS = [0, 1, 63, 64, 65, 128, 1000, 8191, 8192, 8193, 8640]


class TestDecodeIds:
    @pytest.mark.parametrize("nbits", WIDTHS)
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 1.0])
    def test_decode_ids_matches_reference(self, nbits, density):
        """Both the bit-peeling and the bytewise paths: densities
        straddle the peeling limit on the wider widths."""
        rng = random.Random(int(nbits * 100 + density * 10))
        mask = random_mask(rng, nbits, density)
        expected = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert decode_ids(mask) == expected


class TestBitHelpers:
    def test_decode_ids_matches_manual_scan(self):
        mask = (1 << 0) | (1 << 3) | (1 << 70)
        assert decode_ids(mask) == [0, 3, 70]
        assert decode_ids(0) == []

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount((1 << 100) | 0b1011) == 4

    def test_bitset_words_rounds_up(self):
        assert bitset_words(0) == 0
        assert bitset_words(1) == 1
        assert bitset_words(1 << 63) == 1
        assert bitset_words(1 << 64) == 2


class TestFactTable:
    def test_ids_are_dense_and_stable(self):
        table = FactTable()
        pairs = _sample_pairs()
        ids = [table.pair_id(p) for p in pairs]
        assert ids == list(range(len(pairs)))
        # Re-interning is a no-op.
        assert [table.pair_id(p) for p in pairs] == ids
        assert table.pair_count() == len(pairs)
        for ident, p in zip(ids, pairs):
            assert table.pair_of(ident) is p

    def test_mask_roundtrip_is_sorted_by_id(self):
        table = FactTable()
        pairs = _sample_pairs()
        mask = table.pair_mask(pairs)
        assert popcount(mask) == len(pairs)
        decoded = table.decode_pairs(mask)
        assert decoded == [table.pair_of(i) for i in decode_ids(mask)]
        assert set(decoded) == set(pairs)

    def test_decode_calls_counter(self):
        table = FactTable()
        mask = table.pair_mask(_sample_pairs())
        before = table.decode_calls
        table.decode_pairs(mask)
        table.decode_items(mask)
        assert table.decode_calls == before + 2

    def test_base_mask_partitions_pairs(self):
        table = FactTable()
        pairs = _sample_pairs()
        table.pair_mask(pairs)
        g_mask = table.base_mask(G)
        h_mask = table.base_mask(H)
        # Base masks partition the id space by the *path's* root.
        assert g_mask & h_mask == 0
        assert g_mask | h_mask == (1 << len(pairs)) - 1
        assert all(table.pair_of(i).path.base is G
                   for i in decode_ids(g_mask))
        assert table.base_mask(global_location("unseen")) == 0

    def test_path_ids_independent_of_pair_ids(self):
        table = FactTable()
        g = make_path(G, ())
        h = make_path(H, (INDEX,))
        assert table.path_id(g) == 0
        assert table.path_id(h) == 1
        assert table.path_of(0) is g
        assert table.decode_paths(table.path_mask([h, g])) == [g, h]

    def test_pickle_roundtrip_rebuilds_indexes(self):
        table = FactTable()
        pairs = _sample_pairs()
        mask = table.pair_mask(pairs)
        table.path_id(pairs[0].path)
        clone = pickle.loads(pickle.dumps(table))
        # Same ids, same decode, same base index — rebuilt, not copied.
        assert clone.pair_count() == table.pair_count()
        assert [repr(p) for p in clone.decode_pairs(mask)] == \
            [repr(p) for p in table.decode_pairs(mask)]
        # Unpickling copies the identity-keyed base-locations (sharing
        # is preserved *within* one pickle, e.g. a whole Program), so
        # the rebuilt base index must be queried with the clone's own
        # bases — and must partition the clone's ids the same way.
        for ident in range(clone.pair_count()):
            clone_base = clone.pair_of(ident).path.base
            table_base = table.pair_of(ident).path.base
            assert clone.base_mask(clone_base) == \
                table.base_mask(table_base)
        assert clone.base_mask(G) == 0  # original bases are foreign
        # New interning continues densely after the ids carried over.
        extra = pair(make_path(global_location("z"), ()),
                     make_path(G, ()))
        assert clone.pair_id(extra) == len(pairs)

    def test_for_program_caches_in_extras(self):
        class FakeProgram:
            extras = {}

        program = FakeProgram()
        table = FactTable.for_program(program)
        assert FactTable.for_program(program) is table
        # A clobbered slot (e.g. a stale pickle) is replaced, not used.
        program.extras[FactTable.EXTRAS_KEY] = "garbage"
        rebuilt = FactTable.for_program(program)
        assert isinstance(rebuilt, FactTable) and rebuilt is not table

    def test_decode_items_pairs_ids_with_objects(self):
        table = FactTable()
        pairs = _sample_pairs()
        mask = table.pair_mask(pairs[1:3])
        items = table.decode_items(mask)
        assert items == [(i, table.pair_of(i)) for i in decode_ids(mask)]
