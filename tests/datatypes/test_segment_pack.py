"""Tests for partial datatype processing and operational pack/unpack,
including hypothesis property tests on randomly composed datatypes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    INT,
    CHAR,
    SegmentCursor,
    contiguous,
    hindexed,
    pack_bytes,
    struct,
    unpack_bytes,
    vector,
)
from repro.datatypes.flatten import Flattened
from repro.ib.memory import NodeMemory


def pairs(slices):
    """An ``(offsets, lengths)`` array pair as a list of int tuples."""
    offsets, lengths = slices
    assert offsets.dtype == lengths.dtype == np.int64
    return list(zip(offsets.tolist(), lengths.tolist()))


@pytest.fixture
def mem():
    return NodeMemory(node=0, capacity=1 << 22)


class TestSegmentCursor:
    def test_total(self):
        cur = SegmentCursor(vector(4, 2, 8, INT), count=3)
        assert cur.total == 4 * 2 * 4 * 3

    def test_full_range_covers_all_blocks(self):
        dt = vector(4, 2, 8, INT)
        cur = SegmentCursor(dt)
        offsets, lengths = cur.slices(0, cur.total)
        assert lengths.sum() == dt.size
        assert np.array_equal(offsets, dt.flatten(1).offsets)

    def test_mid_block_split(self):
        dt = vector(2, 2, 8, INT)  # blocks of 8 bytes at 0 and 32
        cur = SegmentCursor(dt)
        assert pairs(cur.slices(4, 12)) == [(4, 4), (32, 4)]

    def test_range_inside_one_block(self):
        dt = vector(2, 2, 8, INT)
        cur = SegmentCursor(dt)
        assert pairs(cur.slices(1, 3)) == [(1, 2)]

    def test_empty_range(self):
        cur = SegmentCursor(INT)
        assert pairs(cur.slices(2, 2)) == []

    def test_out_of_range_rejected(self):
        cur = SegmentCursor(INT)
        with pytest.raises(ValueError):
            cur.slices(0, 5)
        with pytest.raises(ValueError):
            cur.slices(-1, 2)

    def test_block_count(self):
        dt = vector(4, 1, 4, INT)  # 4 blocks of 4 bytes
        cur = SegmentCursor(dt)
        assert cur.block_count(0, 16) == 4
        assert cur.block_count(0, 4) == 1
        assert cur.block_count(2, 6) == 2
        assert cur.block_count(5, 5) == 0

    def test_advance_streaming(self):
        dt = vector(3, 1, 4, INT)
        cur = SegmentCursor(dt)
        assert not cur.done
        first = cur.advance(6)
        assert cur.pos == 6
        second = cur.advance(100)  # clamped to total
        assert cur.done
        # recombine: the two pieces are the full walk, cut inside block 1
        assert pairs(first) == [(0, 4), (16, 2)]
        assert pairs(second) == [(18, 2), (32, 4)]
        assert first[1].sum() + second[1].sum() == cur.slices(0, cur.total)[1].sum()

    def test_reset(self):
        cur = SegmentCursor(INT)
        cur.advance(4)
        assert cur.done
        cur.reset()
        assert cur.pos == 0

    def test_segments_cover_exactly(self):
        dt = vector(10, 3, 7, INT)
        cur = SegmentCursor(dt, count=2)
        segs = list(cur.segments(100))
        assert segs[0][0] == 0
        assert segs[-1][1] == cur.total
        for (a_lo, a_hi), (b_lo, b_hi) in zip(segs, segs[1:]):
            assert a_hi == b_lo
        assert all(hi - lo <= 100 for lo, hi in segs)

    def test_segments_bad_size(self):
        with pytest.raises(ValueError):
            list(SegmentCursor(INT).segments(0))


def piece_walk(blocks, pos, take):
    """Reference: the byte-walk Hybrid used to carry (``_pack_range``) —
    the (address, length) runs holding packed bytes [pos, pos + take) of
    ``blocks`` concatenated in list order."""
    runs, walked = [], 0
    for addr, ln in blocks:
        lo = max(0, pos - walked)
        hi = min(ln, pos + take - walked)
        if hi > lo:
            runs.append((addr + lo, hi - lo))
        walked += ln
    return runs


class TestOverBlocks:
    """``SegmentCursor.over_blocks``: the block list taken as given."""

    # stream order is not address order; blocks 2 and 3 touch
    BLOCKS = [(900, 10), (100, 7), (200, 16), (216, 4), (50, 1), (300, 26)]

    def test_touching_and_unsorted_blocks_stay_as_given(self):
        cur = SegmentCursor.over_blocks(self.BLOCKS)
        assert list(cur.flat.blocks()) == self.BLOCKS
        assert cur.flat.nblocks == 6  # Flattened.from_blocks would give 5
        assert Flattened.from_blocks(self.BLOCKS).nblocks == 5
        assert cur.total == 64
        assert cur.block_count(0, cur.total) == 6

    def test_slices_equal_the_piece_walk(self):
        cur = SegmentCursor.over_blocks(self.BLOCKS)
        for lo in range(cur.total + 1):
            for hi in range(lo, cur.total + 1):
                assert pairs(cur.slices(lo, hi)) == piece_walk(self.BLOCKS, lo, hi - lo)

    def test_pack_unpack_through_it(self, mem):
        cur = SegmentCursor.over_blocks(self.BLOCKS)
        original = np.arange(1024, dtype=np.uint16).astype(np.uint8)
        base, buf = mem.alloc(1024), mem.alloc(64)
        mem.view(base, 1024)[:] = original
        runs = piece_walk(self.BLOCKS, 5, 35)
        assert pack_bytes(mem, base, cur, 5, 40, buf) == len(runs) == 6
        packed = np.concatenate([original[a : a + n] for a, n in runs])
        assert np.array_equal(mem.view(buf, 35), packed)
        mem.view(base, 1024)[:] = 0
        assert unpack_bytes(mem, base, cur, 5, 40, buf) == 6
        expect = np.zeros(1024, dtype=np.uint8)
        for a, n in runs:
            expect[a : a + n] = original[a : a + n]
        assert np.array_equal(mem.view(base, 1024), expect)

    def test_empty(self):
        cur = SegmentCursor.over_blocks([])
        assert cur.total == 0 and pairs(cur.slices(0, 0)) == []


class TestPackUnpack:
    def _roundtrip(self, mem, dt, count=1):
        """pack whole message, clear source, unpack, compare."""
        extent_span = dt.flatten(count).span + abs(dt.lb) + 64
        base = mem.alloc(extent_span + 64)
        cur = SegmentCursor(dt, count)
        rng = np.random.default_rng(42)
        original = rng.integers(0, 255, size=extent_span, dtype=np.uint8)
        mem.view(base, extent_span)[:] = original
        packbuf = mem.alloc(max(cur.total, 1))
        pack_bytes(mem, base, cur, 0, cur.total, packbuf)
        # scramble the data blocks, then unpack and verify restoration
        mem.view(base, extent_span)[:] = 0
        unpack_bytes(mem, base, cur, 0, cur.total, packbuf)
        for off, length in cur.flat.blocks():
            assert np.array_equal(
                mem.view(base + off, length), original[off : off + length]
            ), f"block at {off} corrupted"

    def test_roundtrip_vector(self, mem):
        self._roundtrip(mem, vector(16, 3, 10, INT))

    def test_roundtrip_struct(self, mem):
        self._roundtrip(mem, struct([1, 2, 4], [0, 8, 24], [INT, INT, INT]))

    def test_roundtrip_count(self, mem):
        self._roundtrip(mem, vector(4, 1, 3, INT), count=5)

    def test_pack_matches_numpy_reference(self, mem):
        """Packing columns of a 2D array equals numpy fancy slicing."""
        rows, cols, x = 16, 32, 5
        base = mem.alloc(rows * cols * 4)
        arr = mem.view_as(base, (rows, cols), np.int32)
        arr[:] = np.arange(rows * cols).reshape(rows, cols)
        dt = vector(rows, x, cols, INT)
        cur = SegmentCursor(dt)
        packbuf = mem.alloc(cur.total)
        pack_bytes(mem, base, cur, 0, cur.total, packbuf)
        packed = mem.view(packbuf, cur.total).view(np.int32).reshape(rows, x)
        assert np.array_equal(packed, arr[:, :x])

    def test_segmented_pack_equals_whole_pack(self, mem):
        """Packing in arbitrary segments produces the same bytes as one
        whole-message pack — the correctness property of partial
        processing (Section 4.3.1)."""
        dt = vector(32, 3, 9, INT)
        cur = SegmentCursor(dt, count=2)
        base = mem.alloc(dt.extent * 2 + 64)
        rng = np.random.default_rng(7)
        mem.view(base, dt.extent * 2 + 64)[:] = rng.integers(
            0, 255, dt.extent * 2 + 64, dtype=np.uint8
        )
        whole = mem.alloc(cur.total)
        pack_bytes(mem, base, cur, 0, cur.total, whole)
        segged = mem.alloc(cur.total)
        for lo, hi in cur.segments(100):
            pack_bytes(mem, base, cur, lo, hi, segged + lo)
        assert np.array_equal(
            mem.view(whole, cur.total), mem.view(segged, cur.total)
        )

    def test_block_count_returned(self, mem):
        dt = vector(8, 1, 4, INT)
        cur = SegmentCursor(dt)
        base = mem.alloc(dt.extent + 64)
        buf = mem.alloc(cur.total)
        n = pack_bytes(mem, base, cur, 0, cur.total, buf)
        assert n == 8


# -- hypothesis property tests ------------------------------------------------

@st.composite
def random_datatype(draw):
    """Random small datatype: vector, hindexed or struct over INT/CHAR."""
    kind = draw(st.sampled_from(["vector", "hindexed", "struct", "contig"]))
    base = draw(st.sampled_from([INT, CHAR]))
    if kind == "vector":
        count = draw(st.integers(1, 12))
        blocklen = draw(st.integers(1, 6))
        stride = draw(st.integers(blocklen, blocklen + 8))
        return vector(count, blocklen, stride, base)
    if kind == "contig":
        return contiguous(draw(st.integers(1, 64)), base)
    n = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    # build strictly non-overlapping displacements
    disps, pos = [], 0
    for length in lengths:
        gap = draw(st.integers(0, 7))
        pos += gap
        disps.append(pos)
        pos += length * base.extent
    if kind == "hindexed":
        return hindexed(lengths, disps, base)
    return struct(lengths, disps, [base] * n)


@st.composite
def datatype_and_count(draw):
    dt = draw(random_datatype())
    count = draw(st.integers(1, 4))
    return dt, count


class TestProperties:
    @given(datatype_and_count())
    @settings(max_examples=120, deadline=None)
    def test_flatten_size_invariant(self, dc):
        """sum of flattened block lengths == count * datatype.size."""
        dt, count = dc
        assert dt.flatten(count).size == dt.size * count

    @given(datatype_and_count())
    @settings(max_examples=120, deadline=None)
    def test_flatten_blocks_sorted_disjoint(self, dc):
        dt, count = dc
        flat = dt.flatten(count)
        ends = flat.offsets + flat.lengths
        assert (flat.offsets[1:] > ends[:-1]).all()  # strictly disjoint, merged

    @given(datatype_and_count(), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_segmented_equals_whole(self, dc, segsize):
        """Any segmentation packs to the identical contiguous image."""
        dt, count = dc
        cur = SegmentCursor(dt, count)
        if cur.total == 0:
            return
        mem = NodeMemory(0, cur.flat.span + abs(dt.lb) + 2 * cur.total + 4096)
        base = mem.alloc(cur.flat.span + 8)
        rng = np.random.default_rng(0)
        mem.view(base, cur.flat.span + 8)[:] = rng.integers(
            0, 255, cur.flat.span + 8, dtype=np.uint8
        )
        whole = mem.alloc(cur.total)
        pack_bytes(mem, base, cur, 0, cur.total, whole)
        segged = mem.alloc(cur.total)
        for lo, hi in cur.segments(segsize):
            pack_bytes(mem, base, cur, lo, hi, segged + lo)
        assert np.array_equal(mem.view(whole, cur.total), mem.view(segged, cur.total))

    @given(datatype_and_count())
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_roundtrip(self, dc):
        """unpack(pack(x)) == x on all data blocks."""
        dt, count = dc
        cur = SegmentCursor(dt, count)
        if cur.total == 0:
            return
        mem = NodeMemory(0, cur.flat.span + cur.total + 4096)
        base = mem.alloc(cur.flat.span + 8)
        rng = np.random.default_rng(1)
        original = rng.integers(0, 255, cur.flat.span + 8, dtype=np.uint8)
        mem.view(base, cur.flat.span + 8)[:] = original
        buf = mem.alloc(cur.total)
        pack_bytes(mem, base, cur, 0, cur.total, buf)
        mem.view(base, cur.flat.span + 8)[:] = 0
        unpack_bytes(mem, base, cur, 0, cur.total, buf)
        for off, length in cur.flat.blocks():
            assert np.array_equal(mem.view(base + off, length), original[off : off + length])
