"""Operational pack/unpack between user buffers and contiguous buffers.

These functions actually move bytes inside a node's simulated address
space; the *time* cost (datatype processing + copy) is charged by the
caller via :meth:`repro.ib.costmodel.CostModel.pack_time`, because when
the cost is paid — and whether it overlaps the wire — is the whole point
of the paper's schemes.

The *host* cost of this byte movement can be observed through
:data:`probe`: while an observer has put an object with ``clock()`` and
``add_nested(name, ns)`` in that slot, each call reports its own
duration under the name ``"pack-unpack"``.  This module reads no clock
itself and knows nothing about who is listening; with the slot empty
(the default) the probe is two None checks.
"""

from __future__ import annotations

from typing import Any

from repro.datatypes.segment import SegmentCursor
from repro.ib.memory import NodeMemory

__all__ = ["pack_bytes", "unpack_bytes"]

#: host-time probe slot — None unless a host-time profiler is
#: instrumenting the current dispatch (it sets and clears the slot)
probe: Any = None


def pack_bytes(
    memory: NodeMemory, base_addr: int, cursor: SegmentCursor,
    lo: int, hi: int, dest_addr: int,
) -> int:
    """Pack packed-byte range [lo, hi) of the stream rooted at
    ``base_addr`` into the contiguous buffer at ``dest_addr``.

    Returns the number of memory blocks visited (for cost accounting).
    """
    return _move(memory, base_addr, cursor, lo, hi, dest_addr, gather=True)


def unpack_bytes(
    memory: NodeMemory, base_addr: int, cursor: SegmentCursor,
    lo: int, hi: int, src_addr: int,
) -> int:
    """Unpack the contiguous buffer at ``src_addr`` into packed-byte range
    [lo, hi) of the stream rooted at ``base_addr``.

    Returns the number of memory blocks visited.
    """
    return _move(memory, base_addr, cursor, lo, hi, src_addr, gather=False)


def _move(memory, base_addr, cursor, lo, hi, flat_addr, gather: bool) -> int:
    p = probe
    t0 = 0 if p is None else p.clock()
    offsets, lengths = cursor.slices(lo, hi)
    memory.copy_blocks(
        base_addr + offsets, lengths, memory.view(flat_addr, hi - lo),
        gather=gather, width=cursor.width,
    )
    if p is not None:
        p.add_nested("pack-unpack", p.clock() - t0)
    return len(offsets)
