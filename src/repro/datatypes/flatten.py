"""Flattened datatype representation: merged <offset, length> block lists.

The paper (Section 5.4.2) represents a datatype as "a linear list of
<offset, length> tuples.  Each tuple describes a contiguous block of the
datatype by its length and by its offset related to the lower bound."
This is the representation the Multi-W scheme ships to the sender, and the
structure the segment cursor (partial datatype processing) walks.

Blocks are stored as two parallel ``int64`` numpy arrays so prefix sums
and binary search (the partial-processing machinery) are vectorized.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.ib.memory import block_arrays

__all__ = ["Flattened", "layout_cache_clear", "memoized_layout"]

#: bytes per <offset, length> tuple in the wire encoding of a flattened
#: datatype (two 8-byte integers) — used to cost datatype-representation
#: control messages for Multi-W.
WIRE_BYTES_PER_BLOCK = 16


# Benchmark sweeps construct the *same* datatype over and over (a fresh
# ``column_vector(c)`` per measurement), so the per-instance cache in
# ``Datatype.flatten`` misses across constructions.  Flattening is pure in
# the datatype's structural signature and the count, so layouts are also
# memoized process-wide under ``(signature, count)``.  Bounded LRU: sweeps
# touch a few hundred distinct layouts; the cap guards pathological ones.

_LAYOUT_CACHE: "OrderedDict[tuple, Flattened]" = OrderedDict()
_LAYOUT_CACHE_MAX = 4096


def memoized_layout(key: tuple, compute: Callable, *args) -> "Flattened":
    """The layout memoized under ``key``; ``compute(*args)`` and memoize
    it on a miss."""
    flat = _LAYOUT_CACHE.get(key)
    if flat is not None:
        _LAYOUT_CACHE.move_to_end(key)
        return flat
    flat = _LAYOUT_CACHE[key] = compute(*args)
    if len(_LAYOUT_CACHE) > _LAYOUT_CACHE_MAX:
        _LAYOUT_CACHE.popitem(last=False)
    return flat


def layout_cache_clear() -> None:
    """Drop all memoized layouts (test isolation)."""
    _LAYOUT_CACHE.clear()


@dataclass(frozen=True)
class Flattened:
    """An immutable, merged block list.

    ``offsets[i]`` is the byte offset of block ``i`` relative to the start
    of the buffer (the datatype's origin), ``lengths[i]`` its byte length.
    Invariants (enforced by :meth:`from_blocks`):

    * offsets strictly increasing,
    * blocks non-overlapping,
    * no zero-length blocks,
    * no two adjacent blocks touching (they would have been merged).
    """

    offsets: np.ndarray
    lengths: np.ndarray

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks) -> "Flattened":
        """Build from (offset, length) pairs — any iterable of them or an
        ``(n, 2)`` array: sort, drop empties, merge touching runs."""
        offsets, lengths = block_arrays(blocks)
        live = lengths > 0
        offsets, lengths = offsets[live], lengths[live]
        order = np.lexsort((lengths, offsets))
        offsets, ends = offsets[order], (offsets + lengths)[order]
        after, before = offsets[1:], ends[:-1]  # the two sides of every gap
        clash = np.flatnonzero(after < before)
        if len(clash):
            raise ValueError(
                f"overlapping blocks at offset {after[clash[0]]} "
                f"(previous block ends at {before[clash[0]]})"
            )
        parts = after != before  # a run goes on where the next block touches
        offs = np.concatenate((offsets[:1], after[parts]))
        lens = np.concatenate((before[parts], ends[-1:])) - offs
        offs.setflags(write=False)
        lens.setflags(write=False)
        return cls(offs, lens)

    @classmethod
    def empty(cls) -> "Flattened":
        return cls.from_blocks([])

    # -- properties ----------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return len(self.offsets)

    @property
    def size(self) -> int:
        """Total bytes of real data."""
        return int(self.lengths.sum())

    @property
    def span(self) -> int:
        """Bytes from the first block's start to the last block's end."""
        if self.nblocks == 0:
            return 0
        return int(self.offsets[-1] + self.lengths[-1] - self.offsets[0])

    @property
    def gap_bytes(self) -> int:
        """Total bytes of holes between blocks."""
        return self.span - self.size

    @property
    def is_contiguous(self) -> bool:
        return self.nblocks <= 1

    @property
    def min_block(self) -> int:
        return int(self.lengths.min()) if self.nblocks else 0

    @property
    def max_block(self) -> int:
        return int(self.lengths.max()) if self.nblocks else 0

    @property
    def mean_block(self) -> float:
        return float(self.lengths.mean()) if self.nblocks else 0.0

    @property
    def median_block(self) -> float:
        return float(np.median(self.lengths)) if self.nblocks else 0.0

    @cached_property
    def width(self) -> int:
        """The length all interior blocks (every block but the first and
        the last) share, 0 if they differ or there are none: the interior
        width of every list :class:`SegmentCursor` cuts from these blocks,
        found once per (memoized) layout."""
        inner = self.lengths[1:-1]
        return int(inner[0]) if len(inner) and (inner == inner[0]).all() else 0

    @property
    def wire_bytes(self) -> int:
        """Size of this block list's wire encoding (datatype
        representation message for Multi-W, Section 5.4.2)."""
        return self.nblocks * WIRE_BYTES_PER_BLOCK

    # -- derivation -------------------------------------------------------

    def repeat(self, count: int, extent: int) -> "Flattened":
        """The block list of ``count`` consecutive elements, each shifted
        by the datatype extent — how (datatype, count) send buffers are
        laid out."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 1:
            return self
        offsets = self.offsets + np.arange(count, dtype=np.int64)[:, None] * extent
        lengths = np.broadcast_to(self.lengths, offsets.shape)
        return Flattened.from_blocks(np.stack((offsets, lengths), axis=-1))

    def shift(self, delta: int) -> "Flattened":
        """Translate all offsets by ``delta`` bytes."""
        offs = self.offsets + int(delta)
        offs.setflags(write=False)
        return Flattened(offs, self.lengths)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Iterate (offset, length) pairs."""
        return zip(self.offsets.tolist(), self.lengths.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flattened):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.lengths, other.lengths
        )

    def __hash__(self) -> int:
        return hash((self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Flattened {self.nblocks} blocks, {self.size} bytes>"
