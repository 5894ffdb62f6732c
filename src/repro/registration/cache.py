"""Pin-down registration cache (Tezuka et al. [12]).

Applications tend to reuse a handful of buffers for all communication
(Section 6; Liu et al. [18]), so keeping registrations alive across
operations amortizes their cost.  The cache:

* serves a request from an existing region when one **covers** the
  requested range (hit: zero cost),
* otherwise registers the exact range (miss: full registration cost) and
  caches it,
* evicts least-recently-used, *unreferenced* entries when the pinned-byte
  budget is exceeded — entries currently in use by an in-flight operation
  are pinned by refcount.

The Figure 14 "worst case" benchmark runs with the cache disabled
(capacity 0), forcing on-the-fly registration/deregistration every
operation — the paper's scenario where an application never reuses a
buffer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.ib.memory import MemoryRegion

__all__ = ["RegistrationCache"]


@dataclass
class _Entry:
    mr: MemoryRegion
    refcount: int = 0


class RegistrationCache:
    """Per-node pin-down cache keyed by (addr, length) with containment
    lookup."""

    def __init__(self, node, capacity_bytes: int, hint_fn=None):
        """``capacity_bytes = 0`` disables caching entirely (every acquire
        registers, every release deregisters).

        ``hint_fn(addr, length)`` may return False for buffers the
        application declared one-shot (the paper's MPI_Info suggestion,
        Section 6): their registrations are never retained.
        """
        self.node = node
        self.capacity_bytes = capacity_bytes
        self._hint_fn = hint_fn
        self._entries: "OrderedDict[tuple[int, int], _Entry]" = OrderedDict()
        # hits / misses / evictions are the node's reg.cache.* counters:
        # one store, read back through the properties below
        metrics = node.metrics
        self._hits_metric = metrics.counter("reg.cache.hits", node.node_id)
        self._misses_metric = metrics.counter("reg.cache.misses", node.node_id)
        self._evictions_metric = metrics.counter(
            "reg.cache.evictions", node.node_id
        )
        self._pinned_gauge = metrics.gauge("reg.cache.pinned_bytes", node.node_id)

    @property
    def hits(self) -> int:
        return int(self._hits_metric.value)

    @property
    def misses(self) -> int:
        return int(self._misses_metric.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions_metric.value)

    @property
    def pinned_bytes(self) -> int:
        return sum(e.mr.length for e in self._entries.values())

    def acquire(self, addr: int, length: int):
        """Get a registered region covering [addr, addr+length).

        Generator returning the :class:`MemoryRegion`.  Registration time
        is charged on a miss only.
        """
        for key, entry in self._entries.items():
            if entry.mr.covers(addr, length):
                self._hits_metric.inc()
                entry.refcount += 1
                self._entries.move_to_end(key)
                return entry.mr
        self._misses_metric.inc()
        mr = yield from self.node.register(addr, length)
        hinted_oneshot = (
            self._hint_fn is not None and self._hint_fn(addr, length) is False
        )
        if self.capacity_bytes > 0 and not hinted_oneshot:
            entry = _Entry(mr, refcount=1)
            self._entries[(mr.addr, mr.length)] = entry
            self._pinned_gauge.set(self.pinned_bytes)
            yield from self._evict()
        return mr

    def release(self, mr: MemoryRegion):
        """Declare an acquired region no longer in use (generator).

        Cached entries stay registered (subject to eviction); uncached
        regions (capacity 0) are deregistered immediately.
        """
        entry = self._entries.get((mr.addr, mr.length))
        if entry is None:
            yield from self.node.deregister(mr)
            return
        entry.refcount = max(0, entry.refcount - 1)
        yield from self._evict()

    def _evict(self):
        """Drop LRU unreferenced entries until within budget."""
        while self.pinned_bytes > self.capacity_bytes:
            victim_key = None
            for key, entry in self._entries.items():  # ordered LRU -> MRU
                if entry.refcount == 0:
                    victim_key = key
                    break
            if victim_key is None:
                return  # everything in use; over budget until releases
            entry = self._entries.pop(victim_key)
            self._evictions_metric.inc()
            self._pinned_gauge.set(self.pinned_bytes)
            yield from self.node.deregister(entry.mr)

    def flush(self):
        """Deregister every unreferenced entry (generator)."""
        keys = [k for k, e in self._entries.items() if e.refcount == 0]
        for key in keys:
            entry = self._entries.pop(key)
            self._pinned_gauge.set(self.pinned_bytes)
            yield from self.node.deregister(entry.mr)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
