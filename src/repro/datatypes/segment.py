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

from typing import Iterable, Iterator

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.flatten import Flattened

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

    @classmethod
    def over_blocks(cls, blocks: Iterable[tuple[int, int]]) -> "SegmentCursor":
        """Cursor over an explicit ``(offset, length)`` block list taken
        *as given*: stream order is list order and touching blocks stay
        separate, where :meth:`Flattened.from_blocks` would sort and merge
        them — and so change the block count a copy is billed for.  The
        Hybrid scheme packs its small refined pieces through this."""
        self = cls.__new__(cls)
        self.datatype, self.count = None, 1
        table = np.array(list(blocks), dtype=np.int64).reshape(-1, 2)
        self._index(Flattened(table[:, 0].copy(), table[:, 1].copy()))
        return self

    def _index(self, flat: Flattened) -> None:
        self.flat = flat
        # cum[i] = packed offset of the start of block i; cum[-1] = total
        self._cum = np.concatenate(([0], np.cumsum(flat.lengths, dtype=np.int64)))
        self.total = int(self._cum[-1])
        self._pos = 0

    # -- random access -----------------------------------------------------

    def slices(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Memory (offset, length) slices storing packed bytes [lo, hi).

        Offsets are relative to the buffer origin, in stream order.
        """
        if lo < 0 or hi > self.total or lo > hi:
            raise ValueError(
                f"packed range [{lo}, {hi}) outside [0, {self.total})"
            )
        if lo == hi:
            return []
        offsets, cum = self.flat.offsets, self._cum
        first = int(np.searchsorted(cum, lo, side="right")) - 1
        last = int(np.searchsorted(cum, hi, side="left")) - 1
        starts = cum[first : last + 1]
        blk_lo = np.maximum(lo, starts)
        blk_hi = np.minimum(hi, cum[first + 1 : last + 2])
        mem_off = offsets[first : last + 1] + (blk_lo - starts)
        lens = blk_hi - blk_lo
        pairs = [
            (o, l) for o, l in zip(mem_off.tolist(), lens.tolist()) if l > 0
        ]
        return pairs

    def block_count(self, lo: int, hi: int) -> int:
        """Number of memory slices the packed range [lo, hi) touches —
        the block count the cost model charges datatype processing for."""
        if lo >= hi:
            return 0
        cum = self._cum
        first = int(np.searchsorted(cum, lo, side="right")) - 1
        last = int(np.searchsorted(cum, hi, side="left")) - 1
        return last - first + 1

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

    def advance(self, nbytes: int) -> list[tuple[int, int]]:
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
