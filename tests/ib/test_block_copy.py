"""``NodeMemory.copy_blocks`` — the one block copy behind pack/unpack,
``gather_blocks``/``scatter_blocks`` and the HCA's gather/scatter DMA —
against a per-block slice loop, its bounds errors at both ends of the
address space, and its sorted path (a cursor cut passing its ``width``)
against its reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    BYTE, INT, SegmentCursor, hindexed, pack_bytes, unpack_bytes, vector,
)
from repro.ib import CostModel, Fabric, SGE, SGEList, SendWR, Opcode
from repro.ib.memory import CHUNK_SHIFT, SLICE_COPY_BYTES, NodeMemory, block_arrays
from repro.simulator import Simulator

CAPACITY = 1 << 16
OUTSIDE = "block copy outside address space"


def loop_gather(data, blocks):
    """The reference: one slice per block, in list order."""
    return np.concatenate(
        [data[a : a + n] for a, n in blocks] or [np.empty(0, np.uint8)]
    )


@st.composite
def block_lists(draw):
    """Disjoint blocks in arbitrary order inside the lower half of the
    space: equal or mixed lengths, below and above the slice cut-over,
    first and last possibly cut short."""
    n = draw(st.integers(0, 40))
    equal = draw(st.booleans())
    width = draw(st.sampled_from([1, 4, 7, 64, SLICE_COPY_BYTES, SLICE_COPY_BYTES + 1]))
    width = min(width, (CAPACITY // 2) // max(n, 1) // 2)
    blocks, pos = [], 0
    for _ in range(n):
        pos += draw(st.integers(0, width))  # 0: the blocks touch
        length = width if equal else draw(st.integers(1, width))
        blocks.append((pos, length))
        pos += length
    if n and draw(st.booleans()):  # what a segment boundary does
        a, ln = blocks[0]
        cut = draw(st.integers(0, ln - 1))
        blocks[0] = (a + cut, ln - cut)
        a, ln = blocks[-1]
        blocks[-1] = (a, draw(st.integers(1, ln)))
    return draw(st.permutations(blocks))


class TestAgainstTheSliceLoop:
    @settings(max_examples=80, deadline=None)
    @given(blocks=block_lists(), seed=st.integers(0, 2**16))
    def test_gather_then_scatter(self, blocks, seed):
        mem = NodeMemory(0, CAPACITY)
        rng = np.random.default_rng(seed)
        data = mem.view(0, CAPACITY)
        data[:] = rng.integers(0, 256, CAPACITY, dtype=np.uint8)
        before = data.copy()
        total = sum(n for _a, n in blocks)
        stage = CAPACITY // 2 + 64
        assert mem.gather_blocks(0, blocks, stage) == total
        want = loop_gather(before, blocks)
        assert np.array_equal(mem.view(stage, total), want)
        # scatter fresh bytes back: exactly the blocks change
        fresh = rng.integers(0, 256, total, dtype=np.uint8)
        mem.view(stage, total)[:] = fresh
        assert mem.scatter_blocks(0, blocks, stage) == total
        expect = before.copy()
        expect[stage : stage + total] = fresh
        pos = 0
        for a, n in blocks:
            expect[a : a + n] = fresh[pos : pos + n]
            pos += n
        assert np.array_equal(data, expect)

    def test_every_pair_list_shape_is_one_block_list(self):
        mem = NodeMemory(0, CAPACITY)
        data = mem.view(0, 4096)
        data[:] = np.arange(4096, dtype=np.uint16).astype(np.uint8)
        pairs = [(i * 16, 4) for i in range(64)]
        want = loop_gather(data, pairs)
        for blocks in (
            pairs,
            tuple(pairs),
            (p for p in pairs),
            np.array(pairs),
            np.column_stack(block_arrays(pairs)),
        ):
            mem.view(8192, 256)[:] = 0
            assert mem.gather_blocks(0, blocks, 8192) == 256
            assert np.array_equal(mem.view(8192, 256), want)

    def test_external_buffer_for_the_hca(self):
        mem = NodeMemory(0, CAPACITY)
        data = mem.view(0, CAPACITY)
        data[:] = np.arange(CAPACITY, dtype=np.uint32).astype(np.uint8)
        addrs = np.arange(100, dtype=np.int64) * 40 + 3
        lengths = np.full(100, 8, dtype=np.int64)
        snapshot = np.empty(800, dtype=np.uint8)
        mem.copy_blocks(addrs, lengths, snapshot, gather=True)
        assert np.array_equal(
            snapshot, loop_gather(data, zip(addrs.tolist(), lengths.tolist()))
        )


#: the block width picks the path: the index copy (small equal blocks)
#: or memoryview slices (blocks above the cut-over)
PATHS = pytest.mark.parametrize(
    "width", [4, SLICE_COPY_BYTES * 2], ids=["index-copy", "slices"]
)
ENDS = pytest.mark.parametrize("end", ["below", "above"])


def _stray_blocks(width, end):
    """Eight blocks of ``width``; one interior block lies outside."""
    blocks = [(i * 2 * width, width) for i in range(8)]
    blocks[3] = (-width, width) if end == "below" else (CAPACITY - width + 1, width)
    return blocks


class TestOutsideTheAddressSpace:
    """Satellite bugfix: the upper end used to surface as ``memoryview
    assignment: lvalue and rvalue have different structures`` (gather) or
    silently truncate; the lower end wraps in Python.  Both are the same
    named error now, in both directions, on both copy paths."""

    @PATHS
    @ENDS
    def test_gather_and_scatter_blocks(self, width, end):
        mem = NodeMemory(0, CAPACITY)
        blocks = _stray_blocks(width, end)
        with pytest.raises(ValueError, match=OUTSIDE):
            mem.gather_blocks(0, blocks, CAPACITY // 2)
        with pytest.raises(ValueError, match=OUTSIDE):
            mem.scatter_blocks(0, blocks, CAPACITY // 2)

    @ENDS
    def test_first_and_last_block(self, end):
        mem = NodeMemory(0, CAPACITY)
        stray = (-1, 4) if end == "below" else (CAPACITY - 3, 4)
        inner = [(64 + i * 8, 4) for i in range(6)]
        for blocks in ([stray] + inner, inner + [stray]):
            with pytest.raises(ValueError, match=OUTSIDE):
                mem.gather_blocks(0, blocks, CAPACITY // 2)
            with pytest.raises(ValueError, match=OUTSIDE):
                mem.scatter_blocks(0, blocks, CAPACITY // 2)

    @ENDS
    def test_contiguous_side(self, end):
        mem = NodeMemory(0, CAPACITY)
        flat = -8 if end == "below" else CAPACITY - 8
        for move in (mem.gather_blocks, mem.scatter_blocks):
            with pytest.raises(ValueError, match=OUTSIDE):
                move(0, [(0, 8), (16, 8)], flat)

    @ENDS
    def test_pack_and_unpack(self, end):
        mem = NodeMemory(0, CAPACITY)
        cur = SegmentCursor(vector(64, 1, 4, INT))  # 64 blocks over 1 KB
        base = -8 if end == "below" else CAPACITY - 1000
        for move in (pack_bytes, unpack_bytes):
            with pytest.raises(ValueError, match=OUTSIDE):
                move(mem, base, cur, 0, cur.total, CAPACITY // 2)

    @PATHS
    @ENDS
    def test_hca_gather_and_scatter(self, width, end):
        """The HCA's DMA goes through the same routine.  (Posting would
        refuse these descriptors first: no region covers them.)"""
        sim = Simulator()
        node = Fabric(sim, CostModel.mellanox_2003()).add_node(CAPACITY)
        blocks = _stray_blocks(width, end)
        for sges in (
            [SGE(a, n, 1) for a, n in blocks],
            SGEList(*block_arrays(blocks), np.ones(len(blocks), dtype=np.int64)),
        ):
            with pytest.raises(ValueError, match=OUTSIDE):
                node.hca._gather(SendWR(Opcode.RDMA_WRITE, sges=sges))
            with pytest.raises(ValueError, match=OUTSIDE):
                node.hca._scatter(sges, np.zeros(8 * width, dtype=np.uint8))


#: a space of three written-chunks, and bytes to start it from
SPACE = 5 << (CHUNK_SHIFT - 1)
PATTERN = (np.arange(SPACE, dtype=np.int64) * 7 % 251).astype(np.uint8)


@st.composite
def sorted_cuts(draw):
    """``(cursor, lo, hi, base)``: packed bytes [lo, hi) of a sorted,
    disjoint layout rooted at ``base`` — equal or mixed widths, below and
    above the slice cut-over, near together (touching blocks merge) or
    spread over written-chunks; the first and last block cut wherever [lo,
    hi) falls."""
    n = draw(st.integers(1, 80))
    equal, spread = draw(st.booleans()), draw(st.booleans())
    width = draw(st.sampled_from([1, 4, 7, 64, SLICE_COPY_BYTES, SLICE_COPY_BYTES + 1]))
    offsets, lengths, pos = [], [], 0
    for _ in range(n):
        # spread: half the space between the first and the last block
        pos += (SPACE // 2) // n - width if spread else draw(st.integers(0, width))
        lengths.append(width if equal else draw(st.integers(1, width)))
        offsets.append(pos)
        pos += lengths[-1]
    cursor = SegmentCursor(hindexed(lengths, offsets, BYTE))
    lo = draw(st.integers(0, cursor.total - 1) | st.just(0))
    hi = draw(st.integers(lo + 1, cursor.total) | st.just(cursor.total))
    return cursor, lo, hi, draw(st.integers(0, SPACE - pos))


def copied(addrs, lengths, size, gather, width):
    """A fresh space's bytes, the contiguous side and the written-chunk
    record after one ``copy_blocks``."""
    mem = NodeMemory(0, SPACE)
    mem._data[:] = PATTERN  # not through ``view``: nothing is marked yet
    flat = PATTERN[-size:].copy()
    mem.copy_blocks(addrs, lengths, flat, gather=gather, width=width)
    return mem._data.copy(), flat, mem._written.copy()


class TestSortedCut:
    """A cut of a sorted layout is measured at its two ends; the list in
    any order, by reductions, is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(cut=sorted_cuts(), gather=st.booleans())
    def test_moves_and_marks_what_the_reductions_do(self, cut, gather):
        cursor, lo, hi, base = cut
        offsets, lengths = cursor.slices(lo, hi)
        addrs = base + offsets
        shaped = copied(addrs, lengths, hi - lo, gather, cursor.width)
        reduced = copied(addrs, lengths, hi - lo, gather, None)
        for a, b in zip(shaped, reduced):
            assert np.array_equal(a, b)
        if gather:
            blocks = zip(addrs.tolist(), lengths.tolist())
            assert np.array_equal(shaped[1], loop_gather(PATTERN, blocks))

    @settings(max_examples=40, deadline=None)
    @given(cut=sorted_cuts(), gather=st.booleans(), below=st.booleans(),
           pick=st.integers(0, 2**16))
    def test_a_block_outside_the_space_raises(self, cut, gather, below, pick):
        cursor, lo, hi, _base = cut
        offsets, lengths = cursor.slices(lo, hi)
        k = pick % len(offsets)  # this block pokes out by one byte
        start, end = int(offsets[k]), int(offsets[k] + lengths[k])
        base = -1 - start if below else SPACE + 1 - end
        for width in (cursor.width, None):
            with pytest.raises(ValueError, match=OUTSIDE):
                copied(base + offsets, lengths, hi - lo, gather, width)

    def test_the_width_is_the_layouts_interior_width(self):
        assert SegmentCursor(vector(8, 1, 4, INT)).width == 4
        # the first and last block are cut by segment boundaries anyway
        at = [0, 16, 32, 48, 64]
        assert SegmentCursor(hindexed([9, 4, 4, 4, 2], at, BYTE)).width == 4
        assert SegmentCursor(hindexed([4, 4, 8, 4, 4], at, BYTE)).width == 0

    def test_a_cursor_over_blocks_in_list_order_passes_no_width(self, monkeypatch):
        widths = []
        real = NodeMemory.copy_blocks

        def noting(self, *args, **kwargs):
            widths.append(kwargs.get("width"))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(NodeMemory, "copy_blocks", noting)
        mem = NodeMemory(0, CAPACITY)
        mem._data[:] = PATTERN[:CAPACITY]
        blocks = [(4000 - 40 * i, 4) for i in range(50)]  # descending
        cursor = SegmentCursor.over_blocks(blocks)
        assert cursor.width is None
        for lo, hi in ((0, cursor.total), (2, 150)):
            pack_bytes(mem, 0, cursor, lo, hi, CAPACITY // 2)
            whole = loop_gather(PATTERN, blocks)
            assert np.array_equal(mem.view(CAPACITY // 2, hi - lo), whole[lo:hi])
        assert widths == [None, None]
