"""``SegmentCursor.slices`` / ``pack_bytes`` / ``unpack_bytes`` against an
independent numpy oracle, over the constructor space.

The oracle computes the byte index of every packed byte from the
constructor *arguments* with plain numpy arithmetic — the arithmetic of
``hostbench/cells.py::reference_index`` — and shares nothing with
``Datatype.flatten`` or ``SegmentCursor``.  Packed ranges ``[lo, hi)``
are arbitrary, so first and last blocks are cut at arbitrary bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    CHAR,
    DOUBLE,
    INT,
    SHORT,
    SegmentCursor,
    hindexed,
    hvector,
    indexed,
    pack_bytes,
    resized,
    struct,
    subarray,
    unpack_bytes,
    vector,
)
from repro.ib.memory import NodeMemory

PRIMITIVES = (CHAR, SHORT, INT, DOUBLE)


def reference_index(offsets, lengths) -> np.ndarray:
    """Byte index of every byte of a block list, in list order."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    packed_start = np.cumsum(lengths) - lengths
    return np.repeat(offsets - packed_start, lengths) + np.arange(lengths.sum())


def tiled(index, extent, count):
    """``count`` elements ``extent`` apart; the library packs a message in
    address order (its block list is sorted), so does the oracle."""
    return np.sort((index[None, :] + np.arange(count)[:, None] * extent).ravel())


def natural_extent(offsets, lengths):
    offsets, lengths = np.asarray(offsets), np.asarray(lengths)
    return int((offsets + lengths).max() - offsets.min())


@st.composite
def disjoint_blocks(draw, unit):
    """(lengths, displacements) in units of ``unit`` bytes: disjoint,
    possibly touching, listed in arbitrary order."""
    n = draw(st.integers(1, 12))
    lengths, disps, pos = [], [], draw(st.integers(0, 5))
    for _ in range(n):
        length = draw(st.integers(1, 6))
        lengths.append(length)
        disps.append(pos)
        pos += length + draw(st.integers(0, 7))
    order = draw(st.permutations(range(n)))
    return [lengths[i] for i in order], [disps[i] for i in order]


@st.composite
def layouts(draw):
    """``(datatype, byte index of one element, extent)``."""
    kind = draw(st.sampled_from(
        ["vector", "hvector", "indexed", "hindexed", "struct", "subarray", "resized"]
    ))
    base = draw(st.sampled_from(PRIMITIVES))
    size = base.size
    if kind in ("vector", "hvector", "resized"):
        count = draw(st.integers(1, 20))
        blocklen = draw(st.integers(1, 5))
        stride = blocklen + draw(st.integers(0, 9))
        offsets = np.arange(count) * stride * size
        lengths = np.full(count, blocklen * size)
        extent = natural_extent(offsets, lengths)
        if kind == "vector":
            dt = vector(count, blocklen, stride, base)
        elif kind == "hvector":
            dt = hvector(count, blocklen, stride * size, base)
        else:  # pad the extent: elements of a message move apart
            extent += draw(st.integers(0, 24))
            dt = resized(vector(count, blocklen, stride, base), 0, extent)
    elif kind in ("indexed", "hindexed"):
        blocklens, disps = draw(disjoint_blocks(size))
        offsets, lengths = np.array(disps) * size, np.array(blocklens) * size
        extent = natural_extent(offsets, lengths)
        if kind == "indexed":
            dt = indexed(blocklens, disps, base)
        else:
            dt = hindexed(blocklens, [d * size for d in disps], base)
    elif kind == "struct":
        blocklens, disps = draw(disjoint_blocks(8))
        types = [draw(st.sampled_from(PRIMITIVES)) for _ in blocklens]
        # blocks of <= 6 units of 8 bytes hold <= 6 elements of any primitive
        offsets = np.array(disps) * 8
        lengths = np.array([n * t.size for n, t in zip(blocklens, types)])
        extent = natural_extent(offsets, lengths)
        dt = struct(blocklens, offsets.tolist(), types)
    else:
        ndims = draw(st.integers(1, 3))
        sizes = [draw(st.integers(1, 6)) for _ in range(ndims)]
        subsizes = [draw(st.integers(1, s)) for s in sizes]
        starts = [draw(st.integers(0, s - sub)) for s, sub in zip(sizes, subsizes)]
        order = draw(st.sampled_from("CF"))
        elements = np.arange(int(np.prod(sizes))).reshape(sizes, order=order)
        slab = elements[tuple(slice(a, a + n) for a, n in zip(starts, subsizes))]
        offsets = np.sort(slab.ravel()) * size
        lengths = np.full(len(offsets), size)
        extent = elements.size * size
        dt = subarray(sizes, subsizes, starts, base, order=order)
    return dt, np.sort(reference_index(offsets, lengths)), extent


def check_every_range(mem, base, cursor, index, rng, ranges):
    """slices, pack and unpack of packed ranges against ``index``, the
    buffer-relative byte index of every packed byte."""
    span = int(index.max()) + 1
    user = mem.view(base, span)
    stage_addr = mem.capacity // 2
    assert cursor.total == len(index)
    for lo, hi in ranges:
        want = index[lo:hi]
        offsets, lengths = cursor.slices(lo, hi)
        assert offsets.dtype == lengths.dtype == np.int64
        assert np.array_equal(reference_index(offsets, lengths), want)
        assert (lengths > 0).all()
        assert len(offsets) == cursor.block_count(lo, hi)
        # pack: the staging buffer holds exactly those bytes, in order
        user[:] = rng.integers(0, 256, span, dtype=np.uint8)
        stage = mem.view(stage_addr, hi - lo + 2)
        stage[:] = 0xAA
        assert pack_bytes(mem, base, cursor, lo, hi, stage_addr + 1) == len(offsets)
        assert np.array_equal(stage[1:-1], user[want])
        assert stage[0] == stage[-1] == 0xAA
        # unpack: exactly those bytes of the user buffer change
        before = user.copy()
        stage[1:-1] = rng.integers(0, 256, hi - lo, dtype=np.uint8)
        assert unpack_bytes(mem, base, cursor, lo, hi, stage_addr + 1) == len(offsets)
        before[want] = stage[1:-1]
        assert np.array_equal(user, before)


def some_ranges(draw, total):
    """The whole stream, the empty range and a few arbitrary cuts."""
    ranges = [(0, total), (total // 2, total // 2)]
    for _ in range(4):
        lo = draw(st.integers(0, total))
        ranges.append((lo, draw(st.integers(lo, total))))
    return ranges


@settings(max_examples=60, deadline=None)
@given(data=st.data(), layout=layouts(), count=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_constructors_against_the_index_oracle(data, layout, count, seed):
    dt, one, extent = layout
    assert dt.extent == extent
    index = tiled(one, extent, count)
    mem = NodeMemory(0, 1 << 16)
    check_every_range(
        mem, 128, SegmentCursor(dt, count), index,
        np.random.default_rng(seed), some_ranges(data.draw, len(index)),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), blocks=disjoint_blocks(1), seed=st.integers(0, 2**16))
def test_over_blocks_takes_the_list_as_given(data, blocks, seed):
    """Unsorted and touching blocks: stream order is list order and no
    two blocks merge."""
    lengths, offsets = blocks
    index = reference_index(offsets, lengths)  # not sorted: list order
    cursor = SegmentCursor.over_blocks(zip(offsets, lengths))
    assert cursor.flat.nblocks == len(lengths)
    mem = NodeMemory(0, 1 << 16)
    check_every_range(
        mem, 64, cursor, index,
        np.random.default_rng(seed), some_ranges(data.draw, len(index)),
    )
