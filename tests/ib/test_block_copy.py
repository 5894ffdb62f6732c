"""``NodeMemory.copy_blocks`` — the one block copy behind pack/unpack,
``gather_blocks``/``scatter_blocks`` and the HCA's gather/scatter DMA —
against a per-block slice loop, and its bounds errors at both ends of the
address space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import INT, SegmentCursor, pack_bytes, unpack_bytes, vector
from repro.ib import CostModel, Fabric, SGE, SGEList, SendWR, Opcode
from repro.ib.memory import SLICE_COPY_BYTES, NodeMemory, block_arrays
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
