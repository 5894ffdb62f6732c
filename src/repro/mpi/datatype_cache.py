"""Receiver-datatype cache for the Multi-W scheme (Section 5.4.2).

MPI datatypes have local semantics only, so in Multi-W the receiver must
ship its flattened layout to the sender before the sender can target RDMA
writes.  To avoid resending the (possibly large) representation on every
operation, the paper extends Träff's datatype cache [14]:

* the **receiver** assigns each datatype a small ``index`` and a
  ``version``; when a datatype is freed and its index reused, the version
  increments;
* the **sender** caches layouts keyed by (receiver rank, index); a
  version mismatch is detected by the receiver, which then resends the
  full representation ("the sender simply replaces the obsolete datatype
  in its cache with the new one").

Protocol encoding used by the scheme: the rendezvous reply's ``layout``
field is either ``("full", index, version, flattened, total_wire_bytes)``
on first use / version change, or ``("ref", index, version)`` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes.flatten import Flattened
from repro.simulator import MetricsRegistry

__all__ = ["DatatypeCache", "ReceiverTypeRegistry"]


def _counted(metrics: MetricsRegistry, name: str, node) -> int:
    """Read a ``dtype.*`` counter without creating it: the counts below
    live only in the registry, and come into being on first increment so
    an idle cache adds no rows to a metrics snapshot."""
    return int(metrics.counter_values(name).get(node, 0))


@dataclass
class _TypeSlot:
    signature: tuple
    flattened: Flattened
    version: int


class ReceiverTypeRegistry:
    """Receiver-side index/version assignment.

    ``max_indices`` forces index reuse (as a real implementation's finite
    handle table would), exercising the version-bump path.
    """

    def __init__(self, max_indices: int = 256, metrics=None, node=None):
        self.max_indices = max_indices
        self._by_signature: dict[tuple, int] = {}
        self._slots: dict[int, _TypeSlot] = {}
        self._next = 0
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._node = node
        #: indices the peer ranks have been sent, per peer: peer -> {index: version}
        self._peer_state: dict[int, dict[int, int]] = {}

    def intern(self, signature: tuple, flattened: Flattened) -> tuple[int, int]:
        """Get (index, version) for a datatype, assigning or reusing an
        index as needed."""
        idx = self._by_signature.get(signature)
        if idx is not None:
            slot = self._slots[idx]
            return idx, slot.version
        if len(self._slots) < self.max_indices:
            idx = self._next
            self._next += 1
            self._slots[idx] = _TypeSlot(signature, flattened, version=1)
        else:
            # reuse the lowest index (simple deterministic policy) with a
            # version bump — the paper's free-and-reuse case
            idx = min(self._slots)
            old = self._slots[idx]
            # the old signature may already be gone if the slot was freed
            self._by_signature.pop(old.signature, None)
            self._slots[idx] = _TypeSlot(signature, flattened, old.version + 1)
            self._metrics.counter("dtype.registry.evictions", self._node).inc()
        self._by_signature[signature] = idx
        return idx, self._slots[idx].version

    @property
    def evictions(self) -> int:
        """Index reuses forced by the finite handle table (version bumps)."""
        return _counted(self._metrics, "dtype.registry.evictions", self._node)

    def free(self, signature: tuple) -> None:
        """MPI_Type_free: drop the signature; index becomes reusable with
        a version bump on next intern."""
        idx = self._by_signature.pop(signature, None)
        if idx is not None:
            slot = self._slots[idx]
            # keep the slot (and its version) so reuse bumps correctly
            self._slots[idx] = _TypeSlot(("freed",), Flattened.empty(), slot.version)

    def encode_for(
        self,
        peer: int,
        signature: tuple,
        flattened: Flattened,
        force_full: bool = False,
    ):
        """What to put in the rendezvous reply for ``peer``.

        Returns ``("ref", index, version)`` when the peer already holds
        this exact (index, version), else ``("full", index, version,
        flattened)`` and records that the peer now holds it.

        ``force_full`` disables the ref optimization.  Fault injection
        requires it: "peer holds (index, version)" is recorded when the
        full layout is *sent*, but a lossy fabric may drop that message
        while a later ref-carrying reply for another message arrives
        first (replies are not sequence-ordered across messages), and
        the peer would resolve a ref it never received the full form of.
        """
        idx, version = self.intern(signature, flattened)
        state = self._peer_state.setdefault(peer, {})
        if not force_full and state.get(idx) == version:
            return ("ref", idx, version)
        state[idx] = version
        return ("full", idx, version, flattened)


class DatatypeCache:
    """Sender-side cache: (receiver rank, index) -> (version, Flattened)."""

    def __init__(self, metrics=None, node=None):
        self._cache: dict[tuple[int, int], tuple[int, Flattened]] = {}
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._node = node

    @property
    def hits(self) -> int:
        return _counted(self._metrics, "dtype.cache.hits", self._node)

    @property
    def misses(self) -> int:
        return _counted(self._metrics, "dtype.cache.misses", self._node)

    @property
    def evictions(self) -> int:
        """Stale entries replaced by a newer version (version-mismatch
        refresh)."""
        return _counted(self._metrics, "dtype.cache.evictions", self._node)

    def resolve(self, peer: int, layout) -> Flattened:
        """Decode a reply ``layout`` field into the receiver's block list."""
        kind = layout[0]
        if kind == "full":
            _k, idx, version, flattened = layout
            if (peer, idx) in self._cache:
                self._metrics.counter("dtype.cache.evictions", self._node).inc()
            self._cache[(peer, idx)] = (version, flattened)
            self._metrics.counter("dtype.cache.misses", self._node).inc()
            return flattened
        if kind == "ref":
            _k, idx, version = layout
            entry = self._cache.get((peer, idx))
            if entry is None or entry[0] != version:
                raise KeyError(
                    f"datatype cache miss for peer {peer} index {idx} "
                    f"version {version}: receiver sent a ref the sender "
                    "does not hold (protocol error)"
                )
            self._metrics.counter("dtype.cache.hits", self._node).inc()
            return entry[1]
        raise ValueError(f"bad layout encoding {layout!r}")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
