"""``flatten`` / ``SegmentCursor.slices`` / ``pack_bytes`` / ``unpack_bytes``
and the IR round trip against an independent numpy oracle, over the
nested constructor space.

The oracle computes the byte index of every packed byte from the
constructor *arguments* with plain numpy arithmetic — the arithmetic of
``hostbench/cells.py::reference_index`` — and shares nothing with
``Datatype.flatten`` or ``SegmentCursor``.  Packed ranges ``[lo, hi)``
are arbitrary, so first and last blocks are cut at arbitrary bytes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    SHORT,
    Datatype,
    SegmentCursor,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    pack_bytes,
    resized,
    struct,
    subarray,
    unpack_bytes,
    vector,
)
from repro.ib.memory import NodeMemory
from repro.workloads.ir import build_type, encode_type

PRIMITIVES = (CHAR, SHORT, INT, DOUBLE)

#: nesting depth of the drawn types: a constructor over a constructor over
#: a constructor over a primitive at most
MAX_DEPTH = 3

#: counts and blocklengths 0..4, zero one time in ten: zero-length blocks
#: stay in play without emptying most nested types
SMALL = st.integers(0, 9).map(lambda n: n and 1 + n % 4)


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


def merged_blocks(index):
    """(offsets, lengths) of the maximal runs of a sorted byte index."""
    if not len(index):
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    starts = np.flatnonzero(np.diff(index, prepend=index[0] - 2) != 1)
    ends = np.append(starts[1:], len(index))
    return index[starts], ends - starts


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


@dataclass(frozen=True)
class Recipe:
    """A datatype builder and, independently of it, where its bytes lie."""

    #: builds a fresh datatype object on every call
    build: Callable[[], Datatype]
    #: sorted byte offsets of the data of one element, from its origin
    index: np.ndarray
    lb: int
    ub: int

    @property
    def extent(self) -> int:
        return self.ub - self.lb


def _primitive(base) -> Recipe:
    return Recipe(lambda: base, np.arange(base.size), 0, base.size)


def _over(parts) -> tuple:
    """Index and natural bounds of ``(byte displacement, recipe, count)``
    parts: ``count`` elements of the recipe, ``extent`` apart."""
    pieces, lows, highs = [np.zeros(0, np.int64)], [], []
    for disp, inner, count in parts:
        reps = disp + np.arange(count, dtype=np.int64) * inner.extent
        pieces.append((reps[:, None] + inner.index[None, :]).ravel())
        if count:
            lows.append(disp + inner.lb)
            highs.append(disp + inner.lb + count * inner.extent)
    index = np.sort(np.concatenate(pieces))
    assert (np.diff(index) > 0).all(), "the strategy drew overlapping parts"
    return index, min(lows, default=0), max(highs, default=0)


@st.composite
def _placements(draw, extents, unit, blocklength=None):
    """Blocklengths (``blocklength`` for every part when given) and starts
    of disjoint parts, one per extent, in arbitrary order: part ``i``
    occupies ``blocklength * extents[i]`` bytes from ``start * unit``;
    zero-length blocks and a negative shift of every start are drawn."""
    lengths, starts, pos = [], [], draw(st.integers(0, 3))
    for extent in extents:
        length = draw(SMALL) if blocklength is None else blocklength
        lengths.append(length)
        starts.append(pos)
        pos += -(-length * extent // unit) + draw(st.integers(0, 3))
    order = draw(st.permutations(range(len(extents))))
    shift = draw(st.integers(0, 6))
    return [lengths[i] for i in order], [starts[i] - shift for i in order], order


@st.composite
def recipes(draw, depth):
    """A type of nesting depth <= ``depth``; a constructor at the top when
    ``depth`` > 0."""
    if depth == 0:
        return _primitive(draw(st.sampled_from(PRIMITIVES)))
    inner = draw(recipes(draw(st.integers(0, depth - 1))))
    kind = draw(st.sampled_from([
        "contiguous", "vector", "hvector", "indexed", "hindexed",
        "indexed_block", "struct", "subarray", "resized",
    ]))
    if kind == "subarray" and inner.lb != 0:
        kind = "contiguous"  # a subarray's extent is the array: its lb is 0
    make, extent = inner.build, inner.extent
    if kind == "contiguous":
        n = draw(SMALL)
        index, lb, ub = _over([(0, inner, n)])
        return Recipe(lambda: contiguous(n, make()), index, lb, ub)
    if kind in ("vector", "hvector"):
        count, blocklen = draw(SMALL), draw(SMALL)
        sign = draw(st.sampled_from((1, -1)))
        gap = draw(st.integers(0, 3))
        if kind == "vector":
            stride = sign * (blocklen + gap)
            stride_bytes = stride * extent
            build = lambda: vector(count, blocklen, stride, make())
        else:
            stride_bytes = sign * (blocklen * extent + gap)
            build = lambda: hvector(count, blocklen, stride_bytes, make())
        index, lb, ub = _over(
            [(i * stride_bytes, inner, blocklen) for i in range(count)]
        )
        return Recipe(build, index, lb, ub)
    if kind in ("indexed", "indexed_block"):
        n, blocklength = draw(SMALL), draw(SMALL)
        if kind == "indexed":
            blocklength = None
        lengths, starts, _ = draw(
            _placements([extent] * n, max(extent, 1), blocklength)
        )
        if kind == "indexed":
            build = lambda: indexed(lengths, starts, make())
        else:
            build = lambda: indexed_block(blocklength, starts, make())
        index, lb, ub = _over(
            [(s * extent, inner, b) for b, s in zip(lengths, starts)]
        )
        return Recipe(build, index, lb, ub)
    if kind == "hindexed":
        n = draw(SMALL)
        lengths, starts, _ = draw(_placements([extent] * n, 1))
        disps = [s - inner.lb for s in starts]
        index, lb, ub = _over([(d, inner, b) for b, d in zip(lengths, disps)])
        return Recipe(lambda: hindexed(lengths, disps, make()), index, lb, ub)
    if kind == "struct":
        # members equal in structure: one recipe, several objects (built
        # per member, or once and shared)
        choices = [inner, draw(recipes(draw(st.integers(0, depth - 1))))]
        members = [choices[draw(st.integers(0, 1))] for _ in range(draw(SMALL))]
        lengths, starts, order = draw(
            _placements([m.extent for m in members], 1)
        )
        members = [members[i] for i in order]
        disps = [s - m.lb for s, m in zip(starts, members)]
        share = draw(st.booleans())

        def build():
            once = {id(m): m.build() for m in members}
            return struct(lengths, disps, [
                once[id(m)] if share else m.build() for m in members
            ])

        index, lb, ub = _over(list(zip(disps, members, lengths)))
        return Recipe(build, index, lb, ub)
    if kind == "subarray":
        ndims = draw(st.integers(1, 3))
        sizes = [draw(st.integers(1, 3)) for _ in range(ndims)]
        subsizes = [draw(st.integers(1, s)) for s in sizes]
        starts = [draw(st.integers(0, s - sub)) for s, sub in zip(sizes, subsizes)]
        order = draw(st.sampled_from("CF"))
        elements = np.arange(int(np.prod(sizes))).reshape(sizes, order=order)
        slab = elements[tuple(slice(a, a + n) for a, n in zip(starts, subsizes))]
        index, _lb, _ub = _over([(int(j) * extent, inner, 1) for j in slab.ravel()])
        return Recipe(
            lambda: subarray(sizes, subsizes, starts, make(), order=order),
            index, 0, elements.size * extent,
        )
    pad_lo, pad_hi = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    lb = inner.lb - pad_lo
    return Recipe(
        lambda: resized(make(), lb, extent + pad_lo + pad_hi),
        inner.index, lb, inner.ub + pad_hi,
    )


def layouts():
    """Non-empty nested types: ``(datatype, byte index of one element,
    extent)``."""
    return recipes(MAX_DEPTH).filter(lambda r: len(r.index)).map(
        lambda r: (r.build(), r.index, r.extent)
    )


def check_every_range(mem, base, cursor, index, rng, ranges):
    """slices, pack and unpack of packed ranges against ``index``, the
    buffer-relative byte index of every packed byte (negative bytes lie
    below ``base``)."""
    low = min(0, int(index.min()))
    span = int(index.max()) + 1 - low
    user = mem.view(base + low, span)
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
        assert np.array_equal(stage[1:-1], user[want - low])
        assert stage[0] == stage[-1] == 0xAA
        # unpack: exactly those bytes of the user buffer change
        before = user.copy()
        stage[1:-1] = rng.integers(0, 256, hi - lo, dtype=np.uint8)
        assert unpack_bytes(mem, base, cursor, lo, hi, stage_addr + 1) == len(offsets)
        before[want - low] = stage[1:-1]
        assert np.array_equal(user, before)


def memory_for(index):
    """A node memory holding ``index`` above address 0 and, in its upper
    half, a staging buffer for all of it; the buffer origin to use."""
    base = 64 - min(0, int(index.min()))
    need = base + int(index.max()) + 1
    return NodeMemory(0, 1 << max(16, int(need).bit_length() + 1)), base


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
    mem, base = memory_for(index)
    check_every_range(
        mem, base, SegmentCursor(dt, count), index,
        np.random.default_rng(seed), some_ranges(data.draw, len(index)),
    )


@settings(max_examples=100, deadline=None)
@given(recipe=recipes(MAX_DEPTH))
def test_blocks_bounds_and_ir_round_trip(recipe):
    """Empty types included: blocks and bounds against the oracle; a
    second build (fresh objects all the way down) and the IR round trip
    are the same type with the same blocks."""
    dt = recipe.build()
    assert (dt.size, dt.lb, dt.ub) == (len(recipe.index), recipe.lb, recipe.ub)
    offsets, lengths = merged_blocks(recipe.index)
    flat = dt.flatten()
    assert np.array_equal(flat.offsets, offsets)
    assert np.array_equal(flat.lengths, lengths)
    again = recipe.build()
    assert again == dt and hash(again) == hash(dt)
    node = encode_type(dt)
    back = build_type(node)
    assert back == dt and hash(back) == hash(dt)
    assert (back.size, back.lb, back.ub) == (dt.size, dt.lb, dt.ub)
    assert back.flatten() == flat and back.flatten(2) == dt.flatten(2)
    assert encode_type(back) == node


def _corpus() -> dict:
    """Named types whose ``==`` classes are pinned by ``EQUAL_CLASSES``."""
    pair = contiguous(2, INT)
    return {
        "vector": vector(4, 2, 8, INT),
        "hvector": hvector(4, 2, 32, INT),
        "vector_ir": build_type(encode_type(vector(4, 2, 8, INT))),
        "hindexed_same_blocks": hindexed([2] * 4, [0, 32, 64, 96], INT),
        "indexed_same_blocks": indexed([2] * 4, [0, 8, 16, 24], INT),
        "indexed_block_same_blocks": indexed_block(2, [0, 8, 16, 24], INT),
        "contiguous": contiguous(8, INT),
        "hvector_of_ints": hvector(8, 1, 4, INT),
        "contiguous_bytes": contiguous(32, BYTE),
        "contiguous_floats": contiguous(8, FLOAT),
        "struct_ints": struct([1, 1], [0, 8], [INT, INT]),
        "struct_int_and_contiguous": struct([1, 1], [0, 8], [INT, contiguous(1, INT)]),
        "struct_distinct_objects": struct(
            [1, 1], [0, 8], [contiguous(2, INT), contiguous(2, INT)]
        ),
        "struct_shared_object": struct([1, 1], [0, 8], [pair, pair]),
        "struct_swapped": struct([1, 1], [8, 0], [pair, pair]),
        "resized_int": resized(INT, 0, 8),
        "resized_contiguous": resized(contiguous(1, INT), 0, 8),
        "subarray_c": subarray([4, 4], [2, 2], [1, 1], INT),
        "subarray_f": subarray([4, 4], [2, 2], [1, 1], INT, order="F"),
        "subarray_f_asymmetric": subarray([4, 6], [2, 2], [1, 1], INT, order="F"),
        "hindexed_zero_length": hindexed([1, 0, 2], [0, 8, 16], INT),
        "hindexed_without_it": hindexed([1, 2], [0, 16], INT),
        "hindexed_negative": hindexed([2, 2], [-8, 8], INT),
        "contiguous_empty": contiguous(0, INT),
        "hindexed_empty": hindexed([], [], INT),
        "struct_empty": struct([], [], []),
        "nested": vector(3, 1, 2, contiguous(2, INT)),
        "nested_again": vector(3, 1, 2, contiguous(2, INT)),
    }


#: the ``==`` classes of ``_corpus()`` with more than one member; every
#: other name is equal only to itself
EQUAL_CLASSES = [
    {"vector", "hvector", "vector_ir"},
    {"hindexed_same_blocks", "indexed_same_blocks", "indexed_block_same_blocks"},
    {"struct_distinct_objects", "struct_shared_object"},
    {"subarray_c", "subarray_f"},
    {"nested", "nested_again"},
]


def test_equality_matrix_over_a_fixed_corpus():
    corpus = _corpus()
    label = {name: name for name in corpus}
    for members in EQUAL_CLASSES:
        for name in members:
            label[name] = min(members)
    for a, x in corpus.items():
        for b, y in corpus.items():
            assert (x == y) == (label[a] == label[b]), (a, b)
            if x == y:
                assert hash(x) == hash(y), (a, b)


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
