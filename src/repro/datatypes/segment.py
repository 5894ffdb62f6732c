"""Partial datatype processing: the segment cursor.

BC-SPUP and RWG-UP pack/unpack a datatype message *segment by segment*
(Sections 4.2, 4.3.1, 5.1), which "allows us to start and stop the
processing of a datatype at nearly arbitrary points" (Ross et al. [26],
Träff et al. [15]).  :class:`SegmentCursor` provides exactly that: given a
``(datatype, count)`` stream it maps any **packed-byte** range
``[lo, hi)`` to the memory slices that hold those bytes, in stream order,
via a prefix-sum + binary-search over the flattened block list.

The packed-byte coordinate is the offset the byte would have in a fully
packed (contiguous) copy of the message — the natural unit for choosing
segment boundaries independent of the data layout.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.flatten import Flattened
from repro.ib.memory import block_arrays

__all__ = ["SegmentCursor"]


class SegmentCursor:
    """Resumable pack/unpack position over a ``(datatype, count)`` stream.

    The cursor itself is stateless between calls — :meth:`slices` answers
    for any range — but also supports streaming use via :meth:`advance`.
    """

    def __init__(self, datatype: Datatype, count: int = 1):
        self.datatype = datatype
        self.count = count
        self._index(datatype.flatten(count))
        #: a cut's interior width for ``NodeMemory.copy_blocks`` (every cut
        #: is sorted); None for a cursor in list order
        self.width = self.flat.width

    @classmethod
    def over_blocks(cls, blocks) -> "SegmentCursor":
        """Cursor over an explicit ``(offset, length)`` block list taken
        *as given*: stream order is list order and touching blocks stay
        separate, where :meth:`Flattened.from_blocks` would sort and merge
        them — and so change the block count a copy is billed for.  The
        Hybrid scheme packs its small refined pieces through this."""
        self = cls.__new__(cls)
        self.datatype, self.count, self.width = None, 1, None
        offsets, lengths = block_arrays(blocks)
        live = lengths > 0
        self._index(Flattened(offsets[live], lengths[live]))
        return self

    def _index(self, flat: Flattened) -> None:
        self.flat = flat
        # cum[i] = packed offset of the start of block i; cum[-1] = total
        self._cum = np.concatenate(([0], np.cumsum(flat.lengths, dtype=np.int64)))
        self.total = int(self._cum[-1])
        self._pos = 0

    # -- random access -----------------------------------------------------

    def slices(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The memory blocks storing packed bytes [lo, hi), in stream
        order, as an ``(offsets, lengths)`` pair of int64 arrays — the
        currency of ``NodeMemory.copy_blocks``, ``plan_regions`` and
        ``sge_chunks``.  Offsets are relative to the buffer origin; the
        first and last block are cut where the range cuts them."""
        if lo < 0 or hi > self.total or lo > hi:
            raise ValueError(
                f"packed range [{lo}, {hi}) outside [0, {self.total})"
            )
        cum = self._cum
        first = int(np.searchsorted(cum, lo, side="right")) - 1
        # one past the last block; an empty range is the empty slice
        stop = int(np.searchsorted(cum, hi, side="left")) if lo < hi else first
        offsets = self.flat.offsets[first:stop].copy()
        lengths = self.flat.lengths[first:stop].copy()
        if lo < hi:
            head = lo - int(cum[first])
            offsets[0] += head
            lengths[0] -= head
            lengths[-1] -= int(cum[stop]) - hi
        return offsets, lengths

    def block_count(self, lo: int, hi: int) -> int:
        """Number of memory slices the packed range [lo, hi) touches —
        the block count the cost model charges datatype processing for."""
        if lo >= hi:
            return 0
        first = np.searchsorted(self._cum, lo, side="right") - 1
        return int(np.searchsorted(self._cum, hi, side="left") - first)

    # -- streaming ------------------------------------------------------

    @property
    def pos(self) -> int:
        """Current packed-byte position."""
        return self._pos

    @property
    def remaining(self) -> int:
        return self.total - self._pos

    @property
    def done(self) -> bool:
        return self._pos >= self.total

    def advance(self, nbytes: int) -> tuple[np.ndarray, np.ndarray]:
        """Consume the next ``nbytes`` packed bytes; returns their slices."""
        hi = min(self._pos + nbytes, self.total)
        out = self.slices(self._pos, hi)
        self._pos = hi
        return out

    def reset(self) -> None:
        self._pos = 0

    def segments(self, segment_size: int) -> Iterator[tuple[int, int]]:
        """Yield (lo, hi) packed ranges of at most ``segment_size`` bytes
        covering the whole stream."""
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        lo = 0
        while lo < self.total:
            hi = min(lo + segment_size, self.total)
            yield lo, hi
            lo = hi
