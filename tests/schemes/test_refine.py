"""Unit + property tests for the Multi-W common-refinement computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.flatten import Flattened
from repro.schemes import multiw


def refine(*args):
    """``multiw.refine``'s three int64 arrays, as the piece tuples they
    stand for."""
    arrays = multiw.refine(*args)
    assert all(a.dtype == np.int64 for a in arrays)
    return list(zip(*(a.tolist() for a in arrays)))


def flat(*blocks):
    return Flattened.from_blocks(blocks)


def two_pointer_refine(src_flat, src_base, dst_flat, dst_base):
    """The two-pointer walk ``refine`` used to be, kept as the oracle."""
    pieces = []
    si = di = 0
    s_off = d_off = 0  # consumed bytes within the current blocks
    while si < src_flat.nblocks and di < dst_flat.nblocks:
        s_rem = int(src_flat.lengths[si]) - s_off
        d_rem = int(dst_flat.lengths[di]) - d_off
        take = min(s_rem, d_rem)
        pieces.append((
            src_base + int(src_flat.offsets[si]) + s_off,
            dst_base + int(dst_flat.offsets[di]) + d_off,
            take,
        ))
        s_off += take
        d_off += take
        if s_off == int(src_flat.lengths[si]):
            si, s_off = si + 1, 0
        if d_off == int(dst_flat.lengths[di]):
            di, d_off = di + 1, 0
    return pieces


class TestRefine:
    def test_identical_layouts(self):
        f = flat((0, 4), (8, 4))
        pieces = refine(f, 100, f, 200)
        assert pieces == [(100, 200, 4), (108, 208, 4)]

    def test_same_lengths_different_spacing(self):
        """Block for block without a refinement; same answer as the walk."""
        src = flat((0, 4), (8, 2), (16, 6))
        dst = flat((3, 4), (40, 2), (50, 6))
        pieces = refine(src, 100, dst, 200)
        assert pieces == [(100, 203, 4), (108, 240, 2), (116, 250, 6)]
        assert pieces == two_pointer_refine(src, 100, dst, 200)
        assert all(type(v) is int for piece in pieces for v in piece)

    def test_contiguous_to_blocks(self):
        src = flat((0, 12))
        dst = flat((0, 4), (8, 4), (16, 4))
        pieces = refine(src, 0, dst, 0)
        assert pieces == [(0, 0, 4), (4, 8, 4), (8, 16, 4)]

    def test_blocks_to_contiguous(self):
        src = flat((0, 4), (8, 4))
        dst = flat((0, 8))
        pieces = refine(src, 0, dst, 0)
        assert pieces == [(0, 0, 4), (8, 4, 4)]

    def test_misaligned_split(self):
        src = flat((0, 6), (10, 6))
        dst = flat((0, 4), (8, 8))
        pieces = refine(src, 0, dst, 0)
        # stream: src [0..6),[10..16) ; dst [0..4),[8..16)
        assert pieces == [(0, 0, 4), (4, 8, 2), (10, 10, 6)]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            refine(flat((0, 4)), 0, flat((0, 8)), 0)

    def test_empty(self):
        assert refine(flat(), 0, flat(), 0) == []

    @st.composite
    @staticmethod
    def two_partitions(draw):
        """Two block lists carving the same total into different pieces."""
        total = draw(st.integers(1, 200))

        def partition():
            blocks, pos, remaining = [], 0, total
            while remaining > 0:
                gap = draw(st.integers(0, 5))
                ln = draw(st.integers(1, remaining))
                pos += gap
                blocks.append((pos, ln))
                pos += ln
                remaining -= ln
            return Flattened.from_blocks(blocks)

        return partition(), partition()

    @given(two_partitions(), st.integers(0, 1 << 40), st.integers(0, 1 << 40))
    @settings(max_examples=100, deadline=None)
    def test_identical_to_the_two_pointer_walk(self, pair, src_base, dst_base):
        src, dst = pair
        pieces = refine(src, src_base, dst, dst_base)
        assert pieces == two_pointer_refine(src, src_base, dst, dst_base)
        assert all(type(v) is int for piece in pieces for v in piece)

    @given(two_partitions())
    @settings(max_examples=100, deadline=None)
    def test_refinement_properties(self, pair):
        src, dst = pair
        pieces = refine(src, 1000, dst, 5000)
        # total bytes preserved
        assert sum(p[2] for p in pieces) == src.size
        # every piece is inside a source block and a destination block
        src_blocks = [(1000 + o, l) for o, l in src.blocks()]
        dst_blocks = [(5000 + o, l) for o, l in dst.blocks()]
        for s_addr, d_addr, ln in pieces:
            assert any(a <= s_addr and s_addr + ln <= a + l for a, l in src_blocks)
            assert any(a <= d_addr and d_addr + ln <= a + l for a, l in dst_blocks)
        # stream order is preserved: walking pieces covers the source
        # stream in order
        walked = 0
        for s_addr, _d, ln in pieces:
            # position of s_addr in the source stream
            pos = 0
            for a, l in src_blocks:
                if a <= s_addr < a + l:
                    pos += s_addr - a
                    break
                pos += l
            assert pos == walked
            walked += ln

    @given(two_partitions())
    @settings(max_examples=50, deadline=None)
    def test_refinement_moves_stream_correctly(self, pair):
        """Simulated copy through the pieces equals pack->unpack."""
        src, dst = pair
        total_span = max(src.span, dst.span) + 16
        src_mem = np.random.default_rng(0).integers(
            0, 255, total_span, dtype=np.uint8
        )
        dst_mem = np.zeros(total_span, dtype=np.uint8)
        for s_addr, d_addr, ln in refine(src, 0, dst, 0):
            dst_mem[d_addr : d_addr + ln] = src_mem[s_addr : s_addr + ln]
        src_stream = np.concatenate(
            [src_mem[o : o + l] for o, l in src.blocks()]
        ) if src.nblocks else np.empty(0, np.uint8)
        dst_stream = np.concatenate(
            [dst_mem[o : o + l] for o, l in dst.blocks()]
        ) if dst.nblocks else np.empty(0, np.uint8)
        assert np.array_equal(src_stream, dst_stream)
