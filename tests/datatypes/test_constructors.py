"""Unit tests for datatype constructors: sizes, extents, flattening."""

import sys

import pytest

from repro.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    INT,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatypes.constructors import Derived
from repro.workloads import WorkloadError
from repro.workloads.ir import build_type


class TestPrimitives:
    def test_sizes(self):
        assert CHAR.size == 1
        assert INT.size == 4
        assert DOUBLE.size == 8

    def test_extent_equals_size(self):
        assert INT.extent == 4

    def test_contiguous_flag(self):
        assert INT.is_contiguous

    def test_flatten(self):
        flat = INT.flatten(3)
        assert flat.nblocks == 1  # merged
        assert flat.size == 12


class TestContiguous:
    def test_size_and_extent(self):
        dt = contiguous(10, INT)
        assert dt.size == 40
        assert dt.extent == 40
        assert dt.is_contiguous

    def test_flatten_merges(self):
        assert contiguous(10, INT).flatten(5).nblocks == 1

    def test_zero_count(self):
        dt = contiguous(0, INT)
        assert dt.size == 0
        assert dt.flatten(1).nblocks == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            contiguous(-1, INT)

    def test_nested(self):
        dt = contiguous(4, contiguous(5, INT))
        assert dt.size == 80
        assert dt.flatten(1).nblocks == 1


class TestVector:
    def test_paper_example(self):
        """MPI_Type_vector(128, x, 4096, MPI_INT) — Section 3.2."""
        x = 7
        dt = vector(128, x, 4096, INT)
        assert dt.size == 128 * x * 4
        flat = dt.flatten(1)
        assert flat.nblocks == 128
        assert flat.lengths[0] == x * 4
        assert flat.offsets[1] - flat.offsets[0] == 4096 * 4

    def test_extent(self):
        # extent spans first block start to last block end
        dt = vector(3, 2, 10, INT)
        assert dt.extent == (2 * 10 + 2) * 4

    def test_full_width_vector_is_contiguous(self):
        dt = vector(4, 10, 10, INT)
        assert dt.flatten(1).nblocks == 1
        assert dt.is_contiguous

    def test_blocklength_equal_stride_merges(self):
        assert vector(8, 3, 3, INT).flatten(2).nblocks == 1

    def test_count_repetition_tiles_by_extent(self):
        # extent = ((count-1)*stride + blocklength) * elsize = 20 bytes, so
        # the second element's first block (at 20) touches the first
        # element's last block (16..20) and they merge: 3 blocks total.
        dt = vector(2, 1, 4, INT)
        assert dt.extent == 20
        flat2 = dt.flatten(2)
        assert flat2.nblocks == 3
        assert flat2.size == 16

    def test_hvector_bytes(self):
        dt = hvector(3, 1, 100, INT)
        flat = dt.flatten(1)
        assert list(flat.offsets) == [0, 100, 200]


class TestIndexed:
    def test_indexed_scales_by_extent(self):
        dt = indexed([2, 1], [0, 5], INT)
        flat = dt.flatten(1)
        assert list(flat.offsets) == [0, 20]
        assert list(flat.lengths) == [8, 4]

    def test_hindexed_bytes(self):
        dt = hindexed([1, 1], [0, 9], CHAR)
        assert list(dt.flatten(1).offsets) == [0, 9]

    def test_indexed_block(self):
        dt = indexed_block(2, [0, 4, 8], INT)
        flat = dt.flatten(1)
        assert flat.nblocks == 3
        assert all(l == 8 for l in flat.lengths)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            indexed([1, 2], [0], INT)

    def test_out_of_order_displacements_sorted(self):
        dt = indexed([1, 1], [5, 0], INT)
        offs = list(dt.flatten(1).offsets)
        assert offs == sorted(offs)


class TestStruct:
    def test_paper_figure10_struct(self):
        """Block k has 2**k ints, gap after block k equals block k's size."""
        nblocks, lengths, disps = 4, [], []
        pos = 0
        for k in range(nblocks):
            n = 2**k
            lengths.append(n)
            disps.append(pos * 4)
            pos += 2 * n  # block + equal gap
        dt = struct(lengths, disps, [INT] * nblocks)
        assert dt.size == sum(2**k for k in range(nblocks)) * 4
        flat = dt.flatten(1)
        assert flat.nblocks == nblocks
        assert list(flat.lengths) == [4, 8, 16, 32]

    def test_heterogeneous(self):
        dt = struct([1, 2], [0, 8], [INT, DOUBLE])
        assert dt.size == 4 + 16
        flat = dt.flatten(1)
        assert list(flat.offsets) == [0, 8]

    def test_argument_mismatch(self):
        with pytest.raises(ValueError):
            struct([1], [0, 8], [INT, INT])


class TestTrueExtent:
    def test_primitive(self):
        assert INT.true_lb == 0
        assert INT.true_extent == 4

    def test_resized_true_extent_excludes_padding(self):
        dt = resized(INT, lb=0, extent=64)
        assert dt.extent == 64
        assert dt.true_extent == 4

    def test_vector_true_extent_spans_blocks(self):
        dt = vector(3, 1, 4, INT)
        assert dt.true_lb == 0
        assert dt.true_ub == 2 * 16 + 4

    def test_offset_struct_true_lb(self):
        dt = struct([1], [100], [INT])
        assert dt.true_lb == 100
        assert dt.true_extent == 4

    def test_empty_type(self):
        dt = contiguous(0, INT)
        assert dt.true_extent == 0


class TestResized:
    def test_overrides_extent(self):
        dt = resized(INT, lb=0, extent=16)
        assert dt.extent == 16
        assert dt.size == 4
        flat = dt.flatten(3)
        assert list(flat.offsets) == [0, 16, 32]

    def test_negative_lb(self):
        dt = resized(INT, lb=-4, extent=12)
        assert dt.lb == -4
        assert dt.extent == 12


class TestSubarray:
    def test_2d_column_slab(self):
        # 4 x 6 int array, take columns 1..2 (subsizes (4, 2), start (0, 1))
        dt = subarray([4, 6], [4, 2], [0, 1], INT)
        assert dt.size == 4 * 2 * 4
        assert dt.extent == 4 * 6 * 4
        flat = dt.flatten(1)
        assert flat.nblocks == 4
        assert list(flat.offsets) == [4, 28, 52, 76]
        assert all(l == 8 for l in flat.lengths)

    def test_full_array_contiguous(self):
        dt = subarray([4, 6], [4, 6], [0, 0], INT)
        assert dt.flatten(1).nblocks == 1

    def test_3d_slab(self):
        dt = subarray([2, 3, 4], [2, 2, 2], [0, 1, 1], INT)
        assert dt.size == 8 * 4
        flat = dt.flatten(1)
        assert flat.nblocks == 4  # 2*2 rows of 2 contiguous ints

    def test_fortran_order(self):
        # F order: first dim contiguous. Take rows 1..2 of a 6 x 4 array.
        dt = subarray([6, 4], [2, 4], [1, 0], INT, order="F")
        assert dt.size == 8 * 4
        flat = dt.flatten(1)
        assert flat.nblocks == 4
        assert flat.offsets[0] == 4  # starts at row 1

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            subarray([4, 4], [2, 2], [3, 0], INT)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            subarray([4], [2], [0], INT, order="X")


_INT_NODE = {"type": "primitive", "name": "int"}

#: (constructor call, exception, exact message): the rejections a caller
#: or an IR type node (``bad '<kind>' type node: ...``) sees
REJECTIONS = [
    (lambda: hindexed([1, -1], [0, 4], INT), ValueError,
     "blocklength must be non-negative"),
    (lambda: indexed_block(-1, [0], INT), ValueError,
     "blocklength must be non-negative"),
    (lambda: Derived("hvector", [(0, INT, -1)]), ValueError,
     "blocklength must be non-negative"),
    (lambda: hvector(2, -1, 4, INT), ValueError,
     "count and blocklength must be non-negative"),
    (lambda: contiguous(-1, INT), ValueError, "count must be non-negative"),
    (lambda: hindexed([1], [0], "int"), TypeError,
     "base must be a Datatype, got <class 'str'>"),
    (lambda: struct([1, 1], [0, 8], [INT, "x"]), TypeError,
     "base must be a Datatype, got <class 'str'>"),
    (lambda: Derived("hvector", [(0, 5, 1)]), TypeError,
     "base must be a Datatype, got <class 'int'>"),
    (lambda: hindexed([1, 2], [0], INT), ValueError,
     "blocklengths and displacements length mismatch"),
    (lambda: struct([1], [0, 8], [INT, INT]), ValueError,
     "struct argument length mismatch"),
    (lambda: subarray([4], [2, 2], [0], INT), ValueError,
     "subarray argument length mismatch"),
    (lambda: build_type({"type": "hindexed", "blocklengths": [1, -2],
                         "displacements_bytes": [0, 8], "base": _INT_NODE}),
     WorkloadError,
     "type: bad 'hindexed' type node: blocklength must be non-negative"),
    (lambda: build_type({"type": "derived", "kind": "hvector",
                         "parts": [[0, _INT_NODE, -1]], "lb": 0, "ub": 4}),
     WorkloadError,
     "type: bad 'derived' type node: blocklength must be non-negative"),
    (lambda: build_type({"type": "hindexed", "blocklengths": [1],
                         "displacements_bytes": [0, 8], "base": _INT_NODE}),
     WorkloadError, "type: bad 'hindexed' type node: blocklengths and "
     "displacements length mismatch"),
    (lambda: build_type({"type": "hvector", "count": 2.5, "blocklength": 1,
                         "stride_bytes": 8, "base": _INT_NODE}),
     WorkloadError, "type: bad 'hvector' type node: 'float' object cannot "
     "be interpreted as an integer"),
    (lambda: build_type({"type": "hindexed", "blocklengths": [1, 1],
                         "displacements_bytes": [0, "a"], "base": _INT_NODE}),
     WorkloadError, "type: bad 'hindexed' type node: invalid literal for "
     "int() with base 10: 'a'"),
]


@pytest.mark.parametrize(
    "call,error,message", REJECTIONS, ids=[m for _c, _e, m in REJECTIONS]
)
def test_rejection_text(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message


class TestSignatureEquality:
    def test_equal_constructions_equal(self):
        assert vector(4, 2, 8, INT) == vector(4, 2, 8, INT)
        assert hash(vector(4, 2, 8, INT)) == hash(vector(4, 2, 8, INT))

    def test_different_params_differ(self):
        assert vector(4, 2, 8, INT) != vector(4, 3, 8, INT)

    def test_primitive_identity(self):
        assert INT == INT
        assert INT != DOUBLE

    def test_describe(self):
        assert "blocks=128" in vector(128, 1, 4096, INT).describe()


class TestNormalForm:
    """A type is two arrays per base, not one object per part: building,
    identifying and flattening it allocate a bounded number of Python
    objects, however many parts it has (a count, never a clock)."""

    PARTS = 1 << 16

    @pytest.mark.parametrize("build", ["hvector", "hindexed"])
    def test_no_object_per_part(self, build):
        lengths = [4] * self.PARTS  # the argument lists exist beforehand
        displacements = list(range(0, 8 * self.PARTS, 8))
        before = sys.getallocatedblocks()
        if build == "hvector":
            dt = hvector(self.PARTS, 1, 8, INT)
        else:
            dt = hindexed(lengths, displacements, BYTE)
        dt.signature()
        flat = dt.flatten()
        grown = sys.getallocatedblocks() - before
        assert flat.nblocks == self.PARTS
        assert grown < 1000, f"{grown} blocks allocated for {self.PARTS} parts"

    def test_parts_over_equal_bases_share_one_run(self):
        dt = struct([1, 1, 1], [0, 8, 16], [INT, contiguous(1, INT), contiguous(1, INT)])
        assert [len(d) for _b, d, _c in dt.runs] == [1, 2]
        assert dt.parts == [(0, INT, 1), (8, dt.runs[1][0], 1), (16, dt.runs[1][0], 1)]
        assert not dt.runs[0][1].flags.writeable
