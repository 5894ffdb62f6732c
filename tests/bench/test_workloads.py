"""Tests for the paper's benchmark workload definitions."""

import pytest

from repro.bench.skampi import PATTERNS, make_pattern
from repro.bench.workloads import column_vector, fig10_struct


class TestColumnVector:
    def test_matches_paper_shape(self):
        """MPI_Type_vector(128, x, 4096, MPI_INT)."""
        w = column_vector(7)
        assert w.nbytes == 128 * 7 * 4
        assert w.nblocks == 128
        assert w.block_bytes == 28.0

    def test_full_row_is_one_block(self):
        w = column_vector(4096)
        assert w.nblocks == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            column_vector(0)
        with pytest.raises(ValueError):
            column_vector(5000)

    def test_custom_shape(self):
        w = column_vector(2, rows=4, row_len=16)
        assert w.nbytes == 4 * 2 * 4
        assert w.nblocks == 4


class TestFig10Struct:
    def test_block_sizes_grow_exponentially(self):
        w = fig10_struct(8)
        flat = w.datatype.flatten(1)
        assert list(flat.lengths) == [4, 8, 16, 32]  # 1, 2, 4, 8 ints

    def test_gap_equals_block(self):
        """Figure 10: 'The gap between two blocks equals to the size of
        the first block' — so block k+1 starts at 2x the cumulative size."""
        w = fig10_struct(16)
        flat = w.datatype.flatten(1)
        for i in range(flat.nblocks - 1):
            gap = flat.offsets[i + 1] - (flat.offsets[i] + flat.lengths[i])
            assert gap == flat.lengths[i]

    def test_total_size(self):
        # 1 + 2 + ... + 2^k ints
        w = fig10_struct(2048)
        assert w.nbytes == (2 * 2048 - 1) * 4

    def test_paper_block_range_example(self):
        """'when the number of integers in the last block is 8192, the
        block sizes vary from 4 bytes to 32768 bytes'."""
        w = fig10_struct(8192)
        flat = w.datatype.flatten(1)
        assert flat.min_block == 4
        assert flat.max_block == 32768

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            fig10_struct(100)


def test_skampi_patterns_carry_equal_payload():
    """The pattern sweep compares shapes, so every shape moves the same
    number of bytes (to 5 %)."""
    sizes = {name: make_pattern(name).size for name in PATTERNS}
    for name, size in sizes.items():
        assert size == pytest.approx(sizes["contig"], rel=0.05), (name, size)
