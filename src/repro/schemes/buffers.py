"""Pre-registered pack/unpack segment-buffer pools (Sections 4.2, 7.2).

Each pool is one large buffer allocated and registered at MPI_Init time
(uncharged, like the paper's 20 MB allocation "during MPI initialization
time"), divided into fixed 128 KB segment buffers.  Acquisition from the
pool is free; when the pool is exhausted — or disabled for the Figure 14
worst case — the scheme "falls back to the dynamic pack/unpack allocation
and registration as in the basic pack/unpack scheme" (Section 4.3.3):
malloc + register on acquire, deregister + free on release, all charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ib.memory import MemoryRegion

__all__ = ["PoolBuffer", "SegmentPool"]


@dataclass
class _SharedBlock:
    """Refcount for a whole-message dynamic chunk carved into segments."""

    mr: MemoryRegion
    base: int
    remaining: int


@dataclass
class PoolBuffer:
    """One acquired segment buffer."""

    addr: int
    size: int
    lkey: int
    rkey: int
    dynamic: bool
    _mr: Optional[MemoryRegion] = None  # set for dynamic buffers
    _shared: Optional[_SharedBlock] = None  # set for carved block pieces


class SegmentPool:
    """A pool of pre-registered, page-aligned segment buffers."""

    def __init__(self, node, total_bytes: int, segment_size: int, *,
                 enabled: bool = True, growth_limit: Optional[int] = None,
                 name: str = ""):
        """``growth_limit`` bounds how much the pool may grow by absorbing
        dynamically allocated fallback buffers on release (Section 4.3.3:
        extras "can be added into the pack/unpack buffer pool.  When the
        total size exceeds some threshold, some of these extra ...
        buffers may be deregistered").  Defaults to 2x the initial size;
        demand beyond that keeps paying dynamic allocation + registration
        per segment — which is exactly what makes buffer hold time matter
        (the whole-message unpack of Figure 12 holds segments longer,
        drains the pool, and eats registration churn).
        """
        self.node = node
        self.segment_size = segment_size
        self.enabled = enabled
        self.name = name
        self._free: list[int] = []
        self._mr: Optional[MemoryRegion] = None
        #: dynamic buffers absorbed into the pool: addr -> PoolBuffer
        self._absorbed: dict[int, "PoolBuffer"] = {}
        self.total_bytes = total_bytes if enabled else 0
        self.growth_limit = (
            growth_limit if growth_limit is not None else 2 * total_bytes
        )
        #: statistics
        self.pool_acquires = 0
        self.dynamic_acquires = 0
        if enabled:
            nseg = max(1, total_bytes // segment_size)
            region = node.memory.alloc_undefined(
                nseg * segment_size, align=node.cm.page_size
            )
            self._mr = node.memory.register(region, nseg * segment_size)
            self._free = [region + i * segment_size for i in range(nseg)]

    @property
    def available(self) -> int:
        return len(self._free)

    def acquire(self):
        """Get a segment buffer (generator returning :class:`PoolBuffer`).

        Free when served from the pool; charged malloc+registration on
        dynamic fallback.
        """
        if self._free:
            self.pool_acquires += 1
            addr = self._free.pop()
            absorbed = self._absorbed.get(addr)
            if absorbed is not None:
                return absorbed
            return PoolBuffer(
                addr, self.segment_size, self._mr.lkey, self._mr.rkey, dynamic=False
            )
        self.dynamic_acquires += 1
        addr = yield from self.node.malloc(
            self.segment_size, align=self.node.cm.page_size
        )
        mr = yield from self.node.register(addr, self.segment_size)
        return PoolBuffer(
            addr, self.segment_size, mr.lkey, mr.rkey, dynamic=True, _mr=mr
        )

    def acquire_block(self, sizes):
        """Acquire one buffer per entry of ``sizes`` (generator).

        With the pool enabled this is a loop of :meth:`acquire`.  With the
        pool disabled — the Figure 14 worst case — it falls back to "the
        dynamic pack/unpack allocation and registration as in the basic
        pack/unpack scheme" (Section 4.3.3): ONE whole-message malloc +
        registration, carved into per-segment pieces that share the MR and
        are deregistered/freed when the last piece is released.
        """
        if self.enabled:
            bufs = []
            for size in sizes:
                buf = yield from self.acquire()
                bufs.append(buf)
            return bufs
        self.dynamic_acquires += len(sizes)
        align = 64
        offsets, total = [], 0
        for size in sizes:
            offsets.append(total)
            total += -(-size // align) * align
        addr = yield from self.node.malloc(max(total, 1), align=self.node.cm.page_size)
        mr = yield from self.node.register(addr, max(total, 1))
        shared = _SharedBlock(mr=mr, base=addr, remaining=len(sizes))
        return [
            PoolBuffer(addr + off, size, mr.lkey, mr.rkey, dynamic=True,
                       _mr=mr, _shared=shared)
            for off, size in zip(offsets, sizes)
        ]

    def release(self, buf: PoolBuffer):
        """Return a segment buffer (generator).

        Dynamic fallback buffers are absorbed into the pool while the pool
        is under its growth limit (so a burst pays registration once);
        beyond the limit they are deregistered and freed (charged).
        Pieces of a carved block release their shared chunk when the last
        piece comes back.
        """
        if buf._shared is not None:
            buf._shared.remaining -= 1
            if buf._shared.remaining == 0:
                yield from self.node.deregister(buf._shared.mr)
                yield from self.node.mfree(buf._shared.base)
            return
        if buf.dynamic:
            grown = self.total_bytes + self.segment_size
            if self.enabled and grown <= self.growth_limit:
                self.total_bytes += self.segment_size
                absorbed = PoolBuffer(
                    buf.addr, buf.size, buf.lkey, buf.rkey, dynamic=False, _mr=buf._mr
                )
                self._absorbed[buf.addr] = absorbed
                self._free.append(buf.addr)
            else:
                yield from self.node.deregister(buf._mr)
                yield from self.node.mfree(buf.addr)
        else:
            self._free.append(buf.addr)
