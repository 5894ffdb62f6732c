"""Optimistic Group Registration (OGR) — Wu, Wyckoff, Panda [33].

Registering a noncontiguous datatype buffer block-by-block pays the
registration **base cost** once per block; registering the whole spanning
range pays the **per-page cost** for every gap page.  OGR groups blocks
into covering regions so that a gap is swallowed exactly when pinning its
pages is cheaper than starting a new registration operation:

    merge across gap  <=>  pages(gap) * reg_per_page < reg_base

"Large gaps which nulls any benefit over individual registration are
filtered out" (Section 5.4.1).  Because the total cost is the sum of one
base cost per region plus the per-page cost of each region, and each gap's
merge decision changes the total by exactly ``pages(gap)*per_page -
base``, deciding each gap independently on sorted blocks is optimal for
this cost model (up to page-boundary rounding, which :func:`plan_regions`
handles by costing real page spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.ib.costmodel import CostModel
from repro.ib.memory import MemoryRegion, block_arrays

__all__ = ["GroupRegistration", "plan_regions"]


def plan_regions(blocks, cm: CostModel) -> list[tuple[int, int]]:
    """Group (addr, length) blocks — any iterable of pairs or an (n, 2)
    array — into covering regions.

    Blocks must be disjoint; they are sorted internally.  Returns a list of
    (addr, length) regions, each to be registered with one operation.
    Wherever a region began, extending it over the next block costs the
    pages strictly inside the gap (-1: they share one) and saves a
    ``reg_base``: all gaps are decided at once; a tie keeps blocks apart.
    """
    addrs, lengths = block_arrays(blocks)
    live = lengths > 0
    addrs, lengths = addrs[live], lengths[live]
    if len(addrs) < 2:  # nothing to group: a contiguous buffer, the common case
        return list(zip(addrs.tolist(), lengths.tolist()))
    order = np.argsort(addrs, kind="stable")
    addrs, ends = addrs[order], (addrs + lengths)[order]
    after, before = addrs[1:], ends[:-1]  # the two sides of every gap
    overlap = after < before
    if overlap.any():
        raise ValueError(f"overlapping blocks at {after[overlap.argmax()]:#x}")
    gap_pages = after // cm.page_size - (before - 1) // cm.page_size - 1
    # a gap parts two regions unless it is cheaper to pin than a new base
    parts = gap_pages * cm.reg_per_page >= cm.reg_base
    starts = np.concatenate((addrs[:1], after[parts]))
    stops = np.concatenate((before[parts], ends[-1:]))
    return list(zip(starts.tolist(), (stops - starts).tolist()))


def plan_cost(cm: CostModel, regions: Sequence[tuple[int, int]]) -> float:
    """Total registration time of a region plan."""
    return sum(cm.reg_time(l, a) for a, l in regions)


@dataclass
class GroupRegistration:
    """The result of registering a block list as covering regions.

    Provides lkey/rkey lookup for any block inside a region — what the
    Copy-Reduced schemes need to build SGEs and RDMA descriptors.
    """

    regions: list[MemoryRegion] = field(default_factory=list)

    @classmethod
    def register(cls, node, blocks: Iterable[tuple[int, int]], *, charge: bool = True):
        """Plan and register covering regions on ``node`` (generator).

        ``node`` is a :class:`repro.ib.hca.Node`; registration time is
        charged on its CPU per region.
        """
        plan = plan_regions(blocks, node.cm)
        group = cls()
        for addr, length in plan:
            mr = yield from node.register(addr, length, charge=charge)
            group.regions.append(mr)
        return group

    def mr_for(self, addr: int, length: int) -> MemoryRegion:
        """The region covering [addr, addr+length)."""
        for mr in self.regions:
            if mr.covers(addr, length):
                return mr
        raise KeyError(f"no registered region covers [{addr:#x}, {addr + length:#x})")

    def lkey_for(self, addr: int, length: int) -> int:
        return self.mr_for(addr, length).lkey

    @property
    def registered_bytes(self) -> int:
        return sum(mr.length for mr in self.regions)

    @property
    def nregions(self) -> int:
        return len(self.regions)

    def deregister(self, node, *, charge: bool = True):
        """Deregister all regions (generator)."""
        for mr in self.regions:
            yield from node.deregister(mr, charge=charge)
        self.regions.clear()
