"""Per-node address spaces, allocator, and memory registration.

Each simulated node owns a :class:`NodeMemory`: a flat byte-addressable
space backed by a numpy ``uint8`` array.  Buffers are plain ``(addr, size)``
ranges; :meth:`NodeMemory.view` exposes a numpy view for zero-copy access
from the datatype engine.

Memory registration mirrors the verbs model: :meth:`NodeMemory.register`
creates a :class:`MemoryRegion` with local/remote keys; RDMA operations
validate that every byte they touch lies inside a registered region with a
matching key, raising :class:`ProtectionError` otherwise — so tests can
assert that the schemes register exactly what they use.

Registration here is *bookkeeping only*; the **time** cost is charged by
the caller through the node CPU (see :class:`repro.ib.hca.Node`), because
who pays, and when, is precisely what the paper's schemes differ on.
"""

from __future__ import annotations

import bisect
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

__all__ = ["MemoryRegion", "NodeMemory", "ProtectionError", "block_arrays"]

#: block length (bytes) up to which equal-length blocks are copied by one
#: index operation instead of one memoryview slice each.  On the hostbench
#: ladder the index copy costs ~13 ns a block at 32 B, ~45 ns at 256 B and
#: ~660 ns at 4096 B (two passes over the bytes) against ~215 / ~215 /
#: ~540 ns for slices; the curves cross near 2 KB, so 2 KB blocks stay slices.
SLICE_COPY_BYTES = 1024

#: dead spaces' ``(capacity, data, written)``, newest last; ``written`` flags each
#: ``1 << CHUNK_SHIFT``-byte chunk that ``view`` or ``copy_blocks`` may have written
SPARE_ARRAYS = 8
CHUNK_SHIFT = 21
_spares: deque = deque(maxlen=SPARE_ARRAYS)


def _backing(capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The newest spare of ``capacity`` nothing else references (a view
    or ``SimArray`` that outlived its space keeps its bytes), else zeros."""
    alone = np.empty(0)  # named by a local only (getrefcount's reading varies)
    for i in reversed(range(len(_spares))):
        if _spares[i][0] == capacity:
            _, data, written = _spares[i]
            del _spares[i]
            if sys.getrefcount(data) == sys.getrefcount(alone):
                return data, written
    return np.zeros(capacity, np.uint8), np.zeros(-(-capacity >> CHUNK_SHIFT), bool)


def block_arrays(blocks, width: int = 2) -> tuple[np.ndarray, ...]:
    """The ``(offsets, lengths)`` int64 arrays of a block list given as
    any iterable of ``(offset, length)`` pairs or as an ``(n, 2)`` array:
    the one normalisation at every door that takes a block list (or, with
    ``width`` 3, a list of scatter/gather entries)."""
    if not isinstance(blocks, np.ndarray):
        blocks = np.fromiter(chain.from_iterable(blocks), dtype=np.int64)
    return tuple(blocks.reshape(-1, width).T)


def _outside(lo: int, hi: int) -> str:
    return f"block copy outside address space ([{lo:#x}, {hi:#x}))"


class ProtectionError(RuntimeError):
    """An RDMA/SGE access touched unregistered memory or used a bad key."""


@dataclass(frozen=True)
class MemoryRegion:
    """A registered (pinned) range of a node's address space."""

    addr: int
    length: int
    lkey: int
    rkey: int
    node: int

    @property
    def end(self) -> int:
        return self.addr + self.length

    def covers(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.end


@dataclass
class _FreeBlock:
    addr: int
    size: int


class NodeMemory:
    """Flat byte address space with a first-fit allocator and an MR table.

    The allocator is deliberately simple (sorted free list, first fit,
    coalescing on free) — allocation *time* is simulated via the cost
    model, not via the real allocator's behaviour.
    """

    def __init__(self, node: int, capacity: int, page_size: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.node = node
        self.capacity = capacity
        self.page_size = page_size
        self._data, self._written = _backing(capacity)
        weakref.finalize(self, _spares.append, (capacity, self._data, self._written))
        #: flat memoryview of the address space — per-block copies through
        #: memoryview slices skip numpy's per-slice ndarray construction,
        #: which dominates gather/scatter of many small datatype blocks
        self._mv = memoryview(self._data)
        self._free: list[_FreeBlock] = [_FreeBlock(0, capacity)]
        self._allocated: dict[int, int] = {}  # addr -> size
        self._regions: dict[int, MemoryRegion] = {}  # lkey -> MR
        self._by_rkey: dict[int, MemoryRegion] = {}  # rkey -> MR
        self._key_seq = 0
        #: peak bytes allocated, for scalability reporting
        self.peak_allocated = 0
        self._cur_allocated = 0

    # -- allocation -----------------------------------------------------

    def alloc(self, size: int, align: int = 64) -> int:
        """Allocate ``size`` zeroed bytes aligned to ``align``; returns the address.

        Raises :class:`MemoryError` when the space is exhausted.
        """
        addr = self.alloc_undefined(size, align)
        first, end = addr >> CHUNK_SHIFT, addr + size
        hit = np.flatnonzero(self._written[first : ((end - 1) >> CHUNK_SHIFT) + 1])
        if len(hit):
            lo, hi = int(hit[0]) + first, int(hit[-1]) + first + 1
            self._data[max(addr, lo << CHUNK_SHIFT) : min(end, hi << CHUNK_SHIFT)] = 0
        return addr

    def alloc_undefined(self, size: int, align: int = 64) -> int:
        """:meth:`alloc` for a buffer its owner writes before it reads:
        its bytes are whatever the range last held."""
        if size <= 0:
            raise ValueError("size must be positive")
        if align < 1 or align & (align - 1):
            raise ValueError("align must be a positive power of two")
        for i, blk in enumerate(self._free):
            start = -(-blk.addr // align) * align  # round up
            pad = start - blk.addr
            if blk.size >= pad + size:
                # carve [start, start+size) out of blk
                tail_addr = start + size
                tail_size = blk.addr + blk.size - tail_addr
                new_blocks = []
                if pad:
                    new_blocks.append(_FreeBlock(blk.addr, pad))
                if tail_size:
                    new_blocks.append(_FreeBlock(tail_addr, tail_size))
                self._free[i : i + 1] = new_blocks
                self._allocated[start] = size
                self._cur_allocated += size
                self.peak_allocated = max(self.peak_allocated, self._cur_allocated)
                return start
        raise MemoryError(
            f"node {self.node}: out of simulated memory "
            f"(capacity {self.capacity}, requested {size})"
        )

    def free(self, addr: int) -> None:
        """Release an allocation made by :meth:`alloc`."""
        size = self._allocated.pop(addr, None)
        if size is None:
            raise ValueError(f"free of unallocated address {addr:#x}")
        self._cur_allocated -= size
        idx = bisect.bisect_left(self._free, addr, key=lambda b: b.addr)
        self._free.insert(idx, _FreeBlock(addr, size))
        # coalesce with neighbours
        if idx + 1 < len(self._free):
            nxt = self._free[idx + 1]
            if addr + size == nxt.addr:
                self._free[idx].size += nxt.size
                del self._free[idx + 1]
        if idx > 0:
            prv = self._free[idx - 1]
            if prv.addr + prv.size == addr:
                prv.size += self._free[idx].size
                del self._free[idx]

    def alloc_size(self, addr: int) -> int:
        """Size of the allocation starting at ``addr``."""
        return self._allocated[addr]

    # -- access ----------------------------------------------------------

    def _mark(self, lo: int, hi: int) -> None:
        """Record that [lo, hi) may be written."""
        self._written[max(lo, 0) >> CHUNK_SHIFT : ((hi - 1) >> CHUNK_SHIFT) + 1] = True

    def view(self, addr: int, size: int) -> np.ndarray:
        """A numpy uint8 view of [addr, addr+size)."""
        if addr < 0 or addr + size > self.capacity:
            raise ValueError(
                f"view [{addr:#x}, {addr + size:#x}) outside address space"
            )
        self._mark(addr, addr + size)
        return self._data[addr : addr + size]

    def view_as(self, addr: int, shape: tuple, dtype) -> np.ndarray:
        """A typed numpy view starting at ``addr`` with ``shape``/``dtype``."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.view(addr, nbytes).view(dtype).reshape(shape)

    def gather_blocks(self, base_addr: int, blocks, dest_addr: int) -> int:
        """Copy ``(offset, length)`` blocks rooted at ``base_addr`` into the
        contiguous range at ``dest_addr``, which overlaps no block (pack
        staging never aliases the user buffer); returns bytes copied."""
        return self._move(base_addr, blocks, dest_addr, gather=True)

    def scatter_blocks(self, base_addr: int, blocks, src_addr: int) -> int:
        """The inverse of :meth:`gather_blocks`: the contiguous range at
        ``src_addr`` out to the blocks, same non-aliasing contract."""
        return self._move(base_addr, blocks, src_addr, gather=False)

    def _move(self, base_addr: int, blocks, flat_addr: int, gather: bool) -> int:
        offsets, lengths = block_arrays(blocks)
        end = flat_addr + int(lengths.sum())
        if flat_addr < 0 or end > self.capacity:
            raise ValueError(_outside(flat_addr, end))
        flat = self.view(flat_addr, end - flat_addr)
        self.copy_blocks(base_addr + offsets, lengths, flat, gather=gather)
        return end - flat_addr

    def copy_blocks(
        self, addrs: np.ndarray, lengths: np.ndarray, flat: np.ndarray, *,
        gather: bool, width: int | None = None,
    ) -> None:
        """The one block copy: between the disjoint blocks ``(addrs[i],
        lengths[i])`` of this address space, in list order, and the
        contiguous ``uint8`` array ``flat`` of ``lengths.sum()`` bytes —
        into ``flat`` when ``gather``, out of it otherwise.  ``flat`` is a
        view of this memory (pack staging) or the HCA's own DMA snapshot
        and overlaps no block.

        Interior blocks of one length, at most ``SLICE_COPY_BYTES``, move
        in a single index copy through a sliding-window view of the space
        (row ``a`` is ``data[a : a + length]``) whatever their spacing: a
        strided vector and an irregular hindexed cost the same.  The first
        and last block, which a segment boundary may have cut, and any
        other list (few, large or unequal blocks) go through memoryview
        slices.  A block outside the space is an error on either path.

        A list in any order is measured by reductions.  A list sorted by
        address (a ``SegmentCursor`` cut) passes as ``width`` the length its
        interior blocks share (0: they differ): its span is its two ends.
        """
        n = len(addrs)
        lo = hi = 0  # what must lie inside the space before a byte moves
        if width is not None and n:
            lo, hi = int(addrs[0]), int(addrs[-1] + lengths[-1])
            if not gather:
                self._mark(lo, hi)
        else:
            if n and not gather:
                self._mark(int(addrs.min()), int((addrs + lengths).max()))
            width = int(lengths[1]) if n > 2 else 0
            if 0 < width <= SLICE_COPY_BYTES and (lengths[1:-1] == width).all():
                lo, hi = int(addrs[1:-1].min()), int(addrs[1:-1].max()) + width
            else:
                width = 0
        if lo < 0 or hi > self.capacity:
            raise ValueError(_outside(lo, hi))
        if n > 2 and 0 < width <= SLICE_COPY_BYTES:
            window = np.ndarray(
                (self.capacity - width + 1, width), np.uint8, self._data, strides=(1, 1)
            )
            head, tail = int(lengths[0]), len(flat) - int(lengths[-1])
            rows = flat[head:tail].reshape(n - 2, width)
            if gather:
                rows[...] = window[addrs[1:-1]]
            else:
                window[addrs[1:-1]] = rows
            edges = [(0, int(addrs[0]), head), (tail, int(addrs[-1]), len(flat) - tail)]
        else:
            runs = lengths.tolist()
            edges = zip(accumulate(runs, initial=0), addrs.tolist(), runs)
        mv, fv, capacity = self._mv, memoryview(flat), self.capacity
        for pos, addr, length in edges:
            if addr < 0 or addr + length > capacity:
                raise ValueError(_outside(addr, addr + length))
            if gather:
                fv[pos : pos + length] = mv[addr : addr + length]
            else:
                mv[addr : addr + length] = fv[pos : pos + length]

    # -- registration -----------------------------------------------------

    def register(self, addr: int, length: int) -> MemoryRegion:
        """Create a memory region covering [addr, addr+length).

        Bookkeeping only; the caller charges registration time.
        """
        if length <= 0:
            raise ValueError("region length must be positive")
        if addr < 0 or addr + length > self.capacity:
            raise ValueError("region outside address space")
        self._key_seq += 1
        mr = MemoryRegion(
            addr=addr,
            length=length,
            lkey=self._key_seq,
            rkey=self._key_seq | 0x80000000,
            node=self.node,
        )
        self._regions[mr.lkey] = mr
        self._by_rkey[mr.rkey] = mr
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        if self._regions.pop(mr.lkey, None) is None:
            raise ValueError(f"deregister of unknown region lkey={mr.lkey}")
        del self._by_rkey[mr.rkey]

    @property
    def registered_regions(self) -> list[MemoryRegion]:
        return list(self._regions.values())

    @property
    def registered_bytes(self) -> int:
        return sum(mr.length for mr in self._regions.values())

    def check_local(self, addr: int, length: int, lkey: int) -> None:
        """Validate a local SGE access against the MR table."""
        mr = self._regions.get(lkey)
        if mr is None:
            raise ProtectionError(
                f"node {self.node}: unknown lkey {lkey} for "
                f"[{addr:#x}, {addr + length:#x})"
            )
        if not mr.covers(addr, length):
            raise ProtectionError(
                f"node {self.node}: lkey {lkey} region "
                f"[{mr.addr:#x}, {mr.end:#x}) does not cover "
                f"[{addr:#x}, {addr + length:#x})"
            )

    def check_remote(self, addr: int, length: int, rkey: int) -> None:
        """Validate a remote RDMA access against the MR table."""
        mr = self._by_rkey.get(rkey)
        if mr is None:
            raise ProtectionError(f"node {self.node}: unknown rkey {rkey}")
        if not mr.covers(addr, length):
            raise ProtectionError(
                f"node {self.node}: rkey {rkey} region "
                f"[{mr.addr:#x}, {mr.end:#x}) does not cover "
                f"[{addr:#x}, {addr + length:#x})"
            )
