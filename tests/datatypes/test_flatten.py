"""Unit tests for the Flattened block list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.flatten import Flattened


def merge_walk(blocks):
    """The per-pair loop ``Flattened.from_blocks`` used to be: the oracle
    for its sort / drop / overlap / merge, message included."""
    pairs = sorted((int(o), int(l)) for o, l in blocks if l > 0)
    merged = []
    for off, length in pairs:
        if merged and off < merged[-1][0] + merged[-1][1]:
            raise ValueError(
                f"overlapping blocks at offset {off} "
                f"(previous block ends at {merged[-1][0] + merged[-1][1]})"
            )
        if merged and off == merged[-1][0] + merged[-1][1]:
            merged[-1][1] += length
        else:
            merged.append([off, length])
    return [tuple(m) for m in merged]


class TestAgainstTheMergeWalk:
    #: small offsets and lengths: touching, empty, overlapping and
    #: duplicate blocks are all likely
    pairs = st.lists(
        st.tuples(st.integers(-40, 40), st.integers(0, 6)), max_size=14
    )

    @given(pairs)
    @settings(max_examples=150, deadline=None)
    def test_same_blocks_or_same_error(self, blocks):
        try:
            want = merge_walk(blocks)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Flattened.from_blocks(blocks)
            assert str(got.value) == str(exc)
            return
        flat = Flattened.from_blocks(blocks)
        assert list(flat.blocks()) == want
        assert flat.offsets.dtype == flat.lengths.dtype == np.int64
        assert flat == Flattened.from_blocks(np.array(blocks).reshape(-1, 2))

    @given(pairs, st.integers(0, 5), st.integers(-30, 120))
    @settings(max_examples=100, deadline=None)
    def test_repeat_is_the_walk_over_shifted_copies(self, blocks, count, extent):
        try:
            one = Flattened.from_blocks(blocks)
            want = merge_walk(
                (off + i * extent, length)
                for i in range(count) for off, length in one.blocks()
            )
        except ValueError:
            with pytest.raises(ValueError, match="overlapping"):
                Flattened.from_blocks(blocks).repeat(count, extent)
            return
        assert list(one.repeat(count, extent).blocks()) == want


class TestFromBlocks:
    def test_sorts_and_keeps_disjoint(self):
        f = Flattened.from_blocks([(10, 2), (0, 4)])
        assert list(f.offsets) == [0, 10]
        assert list(f.lengths) == [4, 2]

    def test_merges_adjacent(self):
        f = Flattened.from_blocks([(0, 4), (4, 4), (8, 2)])
        assert f.nblocks == 1
        assert f.size == 10

    def test_drops_zero_length(self):
        f = Flattened.from_blocks([(0, 0), (5, 3)])
        assert f.nblocks == 1

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Flattened.from_blocks([(0, 5), (3, 4)])

    def test_empty(self):
        f = Flattened.empty()
        assert f.nblocks == 0
        assert f.size == 0
        assert f.span == 0
        assert f.is_contiguous

    def test_immutable_arrays(self):
        f = Flattened.from_blocks([(0, 4)])
        with pytest.raises(ValueError):
            f.offsets[0] = 99


class TestProperties:
    def test_stats(self):
        f = Flattened.from_blocks([(0, 4), (10, 8), (30, 12)])
        assert f.size == 24
        assert f.span == 42
        assert f.gap_bytes == 18
        assert f.min_block == 4
        assert f.max_block == 12
        assert f.mean_block == 8.0
        assert f.median_block == 8.0

    def test_wire_bytes(self):
        f = Flattened.from_blocks([(0, 4), (10, 8)])
        assert f.wire_bytes == 32


class TestRepeat:
    def test_repeat_tiles_by_extent(self):
        f = Flattened.from_blocks([(0, 4)])
        r = f.repeat(3, extent=10)
        assert list(r.offsets) == [0, 10, 20]

    def test_repeat_merges_when_touching(self):
        f = Flattened.from_blocks([(0, 4)])
        r = f.repeat(3, extent=4)
        assert r.nblocks == 1
        assert r.size == 12

    def test_repeat_zero(self):
        f = Flattened.from_blocks([(0, 4)])
        assert f.repeat(0, 10).nblocks == 0

    def test_repeat_one_is_same(self):
        f = Flattened.from_blocks([(0, 4)])
        assert f.repeat(1, 10) is f

    def test_repeat_negative_rejected(self):
        with pytest.raises(ValueError):
            Flattened.from_blocks([(0, 4)]).repeat(-1, 10)


class TestOps:
    def test_shift(self):
        f = Flattened.from_blocks([(0, 4), (8, 4)]).shift(100)
        assert list(f.offsets) == [100, 108]

    def test_blocks_iter(self):
        f = Flattened.from_blocks([(0, 4), (8, 4)])
        assert list(f.blocks()) == [(0, 4), (8, 4)]

    def test_equality_and_hash(self):
        a = Flattened.from_blocks([(0, 4), (8, 4)])
        b = Flattened.from_blocks([(8, 4), (0, 4)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Flattened.from_blocks([(0, 4)])
