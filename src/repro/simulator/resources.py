"""Synchronization primitives built on the event engine.

* :class:`Resource` — a counted FIFO resource (a pool of rendezvous
  slots, a window lock).  ``acquire()`` returns an event that triggers when
  a slot is granted; ``release()`` hands the slot to the next waiter.
* :class:`Store` — an unbounded FIFO mailbox of items; ``get()`` returns an
  event carrying the next item.  Used for message queues, completion queues
  and control channels.
* :class:`Signal` — a level-triggered broadcast: waiters block until
  :meth:`Signal.set` fires, after which waits complete immediately until
  :meth:`Signal.clear`.

Processes use ``yield from resource.take()`` / ``yield from store.take()``:
the same grant or item, taken in place — no event — when that event would
be the very next dispatch (the engine's in-place rule).  ``take()`` on an
empty store parks the process with no event; the :meth:`Store.put` that
finds it owes its resume in place, or schedules the event where that
would not be the next dispatch.  The event forms stay for composing
(``any_of`` over a get and a timer).

When the owning simulator is traced (``sim.tracer``), all
three primitives record grant/put provenance for the critical-path
walker — a queued :class:`Resource` grant is tagged with its request
time so the wait re-labels as ``resource-wait``; :class:`Store` and
:class:`Signal` waits keep their upstream cause (they are communication
dependencies, not contention) — plus wait-time histograms and
queue-depth samples.  Untraced, nothing is recorded.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

from repro.simulator.engine import PARKED, Event, SimulationError, Simulator

__all__ = ["Resource", "Signal", "Store"]


class Resource:
    """Counted resource with strict FIFO granting.

    Example::

        lock = Resource(sim, capacity=1, name="lock0")

        def work(sim, lock):
            grant = yield from lock.take()
            try:
                yield sim.timeout(10.0)
            finally:
                lock.release(grant)
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        node: Optional[int] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.node = node
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        #: total microseconds of grant-held time, for utilization stats
        self.busy_time = 0.0
        self._grant_times: dict[int, float] = {}
        self._grant_seq = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request a slot; the returned event's value is an opaque grant
        token to pass back to :meth:`release`."""
        ev = Event(self.sim)
        tracer = self.sim.tracer
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self._new_grant())
        else:
            if tracer is not None:
                # re-labels the wait as resource contention on the
                # critical path (see repro.obs.profile)
                ev._ptag = ("resource-wait", self.sim.now, self.name)
            self._waiters.append(ev)
        if tracer is not None:
            tracer.sample_resource(self)
        return ev

    def take(self):
        """``yield from`` form of :meth:`acquire`: an idle slot is taken
        in place when :meth:`Simulator.next_is_mine` holds."""
        if self._in_use < self.capacity and self.sim.next_is_mine():
            self._in_use += 1
            grant = self._new_grant()
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.sample_resource(self)
            return grant
        return (yield self.acquire())

    def release(self, grant: int) -> None:
        """Return a slot.  The oldest waiter (if any) is granted at the
        current simulated time."""
        start = self._grant_times.pop(grant, None)
        if start is None:
            raise SimulationError(f"release of unknown grant {grant!r} on {self.name}")
        self.busy_time += self.sim.now - start
        tracer = self.sim.tracer
        if self._waiters:
            waiter = self._waiters.popleft()
            if tracer is not None and waiter._ptag is not None:
                tracer.observe_wait(
                    "resource.wait_us", self.node, self.sim.now - waiter._ptag[1]
                )
            waiter.succeed(self._new_grant())
        else:
            self._in_use -= 1
        if tracer is not None:
            tracer.sample_resource(self)

    def _new_grant(self) -> int:
        self._grant_seq += 1
        self._grant_times[self._grant_seq] = self.sim.now
        return self._grant_seq

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
            f"queue={len(self._waiters)}>"
        )


class Store:
    """Unbounded FIFO mailbox.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    next item (immediately if one is queued).  Items are delivered strictly
    in FIFO order to getters in FIFO order.  ``items`` pre-fills the
    mailbox (a token or credit pool) as if each had been :meth:`put`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        node: Optional[int] = None,
        items: Iterable[Any] = (),
    ):
        self.sim = sim
        self.name = name
        self.node = node
        self._items: deque[Any] = deque(items)
        #: get() events, and ``(process, request time)`` parks of take()
        self._getters: deque[Any] = deque()
        #: total items ever put (statistics)
        self.total_put = len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            sim = self.sim
            tracer = sim.tracer
            if type(getter) is tuple:  # a process parked in take()
                proc, req = getter
                if tracer is not None:
                    tracer.observe_wait("store.wait_us", self.node, sim.now - req)
                if sim.next_is_mine():
                    sim._owed = (sim.now, 0, proc._step, item, None)
                    return
                getter = Event(sim)
                getter.callbacks.append(proc._resume)
                proc._waiting_on = getter
                if tracer is not None:
                    getter._ptag = ("store-wait", req, self.name)
            elif tracer is not None and getter._ptag is not None:
                tracer.observe_wait(
                    "store.wait_us", self.node, sim.now - getter._ptag[1]
                )
            getter.succeed(item)
        else:
            self._items.append(item)
            tracer = self.sim.tracer
            if tracer is not None and self.name:
                tracer.sample_store(self)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._pop())
        else:
            if self.sim.tracer is not None:
                # a marker, not an attribution override: the walker keeps
                # following the putter's cause chain through store waits
                ev._ptag = ("store-wait", self.sim.now, self.name)
            self._getters.append(ev)
        return ev

    def take(self):
        """``yield from`` form of :meth:`get`: a queued item is taken in
        place when :meth:`Simulator.next_is_mine` holds; on an empty store
        the process parks, with no event, until a :meth:`put` resumes it."""
        sim = self.sim
        if not self._items:
            proc = sim._active_process
            proc._waiting_on = self
            self._getters.append((proc, sim.now))
            return (yield PARKED)
        if sim.next_is_mine():
            return self._pop()
        return (yield self.get())

    def try_get(self, at: Optional[float] = None) -> Optional[Any]:
        """Non-blocking pop; returns None when empty.  ``at`` backdates the
        pop for the tracer's depth series (a settled run member)."""
        return self._pop(at) if self._items else None

    def __iter__(self):
        """Queued items in delivery order, left queued."""
        return iter(self._items)

    def peek(self) -> Optional[Any]:
        """The item the next :meth:`get` would deliver, left queued; None
        when empty."""
        return self._items[0] if self._items else None

    def _pop(self, at: Optional[float] = None) -> Any:
        item = self._items.popleft()
        tracer = self.sim.tracer
        if tracer is not None and self.name:
            tracer.sample_store(self, at)
        return item

    def _unpark(self, proc) -> None:
        """Withdraw the park of ``proc``, an interrupted taker."""
        self._getters = deque(
            g for g in self._getters if type(g) is not tuple or g[0] is not proc
        )

    def cancel_get(self, ev: Event) -> bool:
        """Withdraw a pending :meth:`get` event (e.g. after a timeout won
        a race against it).  Returns False when the event is not waiting —
        either it already triggered with an item or it was never ours; the
        caller must then consume the event's value instead of dropping it.
        """
        try:
            self._getters.remove(ev)
            return True
        except ValueError:
            return False

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (does not consume)."""
        return list(self._items)


class Signal:
    """Level-triggered broadcast event.

    While *clear*, :meth:`wait` returns pending events; :meth:`set` fires
    them all (with ``value``) and subsequent waits complete immediately.
    """

    def __init__(self, sim: Simulator, name: str = "", node: Optional[int] = None):
        self.sim = sim
        self.name = name
        self.node = node
        self._set = False
        self._value: Any = None
        self._waiters: list[Event] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, value: Any = None) -> None:
        if self._set:
            return
        self._set = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        tracer = self.sim.tracer
        for ev in waiters:
            if tracer is not None and ev._ptag is not None:
                tracer.observe_wait(
                    "signal.wait_us", self.node, self.sim.now - ev._ptag[1]
                )
            ev.succeed(value)

    def clear(self) -> None:
        self._set = False
        self._value = None

    def wait(self) -> Event:
        ev = Event(self.sim)
        if self._set:
            ev.succeed(self._value)
        else:
            if self.sim.tracer is not None:
                ev._ptag = ("signal-wait", self.sim.now, self.name)
            self._waiters.append(ev)
        return ev
