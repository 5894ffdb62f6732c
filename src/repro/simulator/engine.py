"""Core discrete-event engine: simulator, events, processes.

The design follows the classic generator-coroutine pattern (SimPy, desmod):

* An :class:`Event` is a one-shot future.  It starts *untriggered*; calling
  :meth:`Event.succeed` (or :meth:`Event.fail`) triggers it, after which the
  simulator invokes its callbacks at the current simulated time.
* A :class:`Process` wraps a generator.  Each value the generator yields must
  be an :class:`Event`; the process suspends until that event triggers and is
  then resumed with the event's value (or the event's exception is thrown
  into the generator).  A :class:`Process` is itself an :class:`Event` that
  triggers when the generator returns, carrying its return value.
* The :class:`Simulator` owns the event heap and the clock.

Determinism: the heap is keyed by ``(time, seq)`` where ``seq`` is a global
monotonically increasing counter, so same-time events fire in the order they
were scheduled.  Nothing in the engine consults wall-clock time or a global
RNG.

In place: :meth:`Simulator.next_is_mine` is true when no heap entry is due
at ``now``, the dispatch in progress has no callback left after the
running one and nothing is owed.  An event the running process would
then schedule at ``now`` and wait on would be the very next dispatch,
observed by that process alone, so the process takes its outcome without
it — no event, no heap entry, no ``seq`` drawn.  ``Resource.take`` /
``Store.take`` do so for an idle grant or a queued item, and
:class:`Process` for a ``yield`` of an already-processed event.  Any
other such event — a ``Store.put``'s resume of a parked taker, a process
start, a zero-delay trigger nobody waits on yet, a condition's hook over
its processed children — is *owed*: one slot, ``Simulator._owed``, holds
the call its dispatch would make, and ``Event._process`` pays it when its
last callback returns; until then ``next_is_mine`` is false, so what the
callback does next queues behind it, as behind the event.  A process
that ends with nobody waiting is marked processed and never scheduled
(its end event would run no callback); traced, it is still stamped with
its provenance.  A *late joiner* — a process that yields it afterwards —
resumes through a relay at its own ``now``, behind the events already due
there, not in the end's place.  A failing process is always scheduled.
The rule reaches a future deadline too: ``next_is_mine(at)`` also holds
when no heap entry is due by ``at`` (one due exactly then was scheduled
earlier and goes first) and ``at`` is within the bound of the
``run(until)`` in progress.  A wait that would end there —
:meth:`Simulator.hold_until`, an idle core's CPU job — then moves ``now``
to ``at`` inside the running dispatch; traced, a stand-in event that is
never dispatched carries the wait's provenance and causes what follows.
A delayed callback, :meth:`Simulator.call_later`, is owed with the
``seq`` its event would draw and paid the same way, unless the rest of
the callback scheduled an entry due before ``at``: the call then becomes
its event after all, under that ``seq``.

Causal provenance (the critical-path profiler, ``repro.obs.profile``):
when :attr:`Simulator.tracer` is set, every scheduled event records the
event being processed at scheduling time (``_cause``), its scheduling time
(``_sched_at``), its due time (``_fire_at``), and an optional attribution
tag (``_ptag``).  Because every trigger happens while some event is being
processed, ``_sched_at`` of an event equals the fire time of its cause, so
the backward ``_cause`` chain from any completion partitions the run into
time-contiguous intervals — the invariant the profiler's attribution sum
rests on.  With ``tracer`` left ``None`` (the default) nothing is
recorded and scheduling order is untouched, keeping untraced runs
byte-identical.

Dispatch seam: :meth:`Simulator.run` is the only loop and
:meth:`Simulator.step` the only dispatch.  An observer that wants to sit
around each dispatch (the host-time profiler does) sets
:attr:`Simulator.dispatch_hook`; ``step()`` then hands it the popped
event instead of calling ``event._process()`` itself.  The engine knows
nothing else about its observers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.simulator.trace import Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


#: what ``Store.take()`` yields on an empty store: parked, no event
PARKED = object()


class SimulationError(RuntimeError):
    """Raised for illegal simulation operations (double trigger, deadlock,
    protection faults in the IB model, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot future tied to a :class:`Simulator`.

    States: *untriggered* -> *triggered* (pending in the heap) ->
    *processed* (callbacks have run).  An event can carry a value or an
    exception; a process waiting on a failed event has the exception thrown
    into it.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exc",
        "triggered",
        "processed",
        "cancelled",
        "_cause",
        "_ptag",
        "_sched_at",
        "_fire_at",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with ``self`` when the event is processed.
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.processed = False
        self.cancelled = False
        #: provenance (populated only while ``sim.tracer`` is set):
        #: the event being processed when this one was scheduled, the
        #: scheduling/fire times, and an attribution tag for the
        #: critical-path profiler (see repro.obs.profile)
        self._cause: Optional["Event"] = None
        self._ptag: Any = None
        self._sched_at: float = -1.0
        self._fire_at: float = -1.0

    # -- triggering -----------------------------------------------------

    def succeed(
        self, value: Any = None, delay: float = 0.0, tag: Any = None
    ) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``.

        ``tag`` labels the delay for critical-path attribution (ignored —
        but harmless — when the simulator is untraced)."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._value = value
        if tag is not None:
            self._ptag = tag
        self._trigger(delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        self._trigger(delay)
        return self

    def _trigger(self, delay: float) -> None:
        sim = self.sim
        if delay or self.callbacks or not sim.next_is_mine():
            sim._schedule(self, delay)
            return
        # unwaited, and its dispatch would be the next: owed, paid as it
        sim._owed = (sim.now, 0, Event._run, self, None)
        if sim.tracer is not None:
            self._cause = sim._current_event
            self._sched_at = self._fire_at = sim.now

    def cancel(self) -> "Event":
        """Withdraw a triggered-but-unprocessed event from the heap.

        The heap entry is skipped without running callbacks or advancing
        the clock — essential for abandoned timers (e.g. the losing arm
        of an ``any_of([get, timeout])`` race), which would otherwise
        keep the simulation alive until their deadline.  Cancelling
        twice is idempotent; cancelling a processed event is an error.
        """
        if self.processed:
            raise SimulationError(f"cannot cancel processed {self!r}")
        self.cancelled = True
        owed = self.sim._owed
        if owed is not None and owed[3] is self:  # an owed trigger
            self.sim._owed = None
        return self

    # -- inspection ------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (raises if the event failed or is pending)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def _process(self) -> None:
        """Run callbacks, the last one with ``sim._tail`` set, then pay
        the calls they owe.  Called by the simulator; not user API."""
        self._run()
        sim = self.sim
        while sim._owed is not None:
            at, seq, fn, arg, tag = sim._owed
            sim._owed = None
            heap = sim._heap
            if heap and heap[0][0] < at:
                # the rest of the callback scheduled an earlier entry: the
                # call is its event after all, under the seq it reserved
                sim._call_event(at, fn, arg, tag, seq)
                return
            if at != sim.now:
                sim._advance(at, tag)
            fn(arg)

    def _run(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        sim = self.sim
        if len(callbacks) > 1:
            sim._tail = False
            for cb in callbacks[:-1]:
                cb(self)
        if callbacks:
            sim._tail = True
            callbacks[-1](self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running simulated process wrapping a generator.

    The process is itself an event: it triggers when the generator returns
    (value = the generator's return value) or raises (the exception
    propagates to waiters, or aborts the simulation if nobody waits).
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen)!r}")
        self._gen = gen
        #: the event it waits on, or the store it is parked in
        self._waiting_on: Any = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off the generator at the current time: in place, after the
        # running callback, when its start event would be the next dispatch
        if sim.next_is_mine():
            sim._owed = (sim.now, 0, self._step, None, None)
            return
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its callback is
        disarmed), a park in a store or an owed resume is withdrawn; the
        process resumes immediately with the interrupt.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        waiting = self._waiting_on
        if isinstance(waiting, Event):
            if self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
        elif waiting is not None:
            waiting._unpark(self)
        owed = self.sim._owed
        if owed is not None and owed[2] == self._step:
            self.sim._owed = None
        self._waiting_on = None
        hook = Event(self.sim)
        hook.callbacks.append(lambda _ev: self._step(throw=Interrupt(cause)))
        hook.succeed()

    # -- internal --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._exc is not None:
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self.triggered:  # interrupted after completion race; ignore
            return
        sim = self.sim
        while True:
            sim._active_process = self
            try:
                if throw is not None:
                    target = self._gen.throw(throw)
                else:
                    target = self._gen.send(send)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                    return
                # nobody waits: its end event would run no callback, so
                # it ends here, with no event (a later joiner relays)
                self.triggered = self.processed = True
                self._value = stop.value
                if sim.tracer is not None:
                    self._cause = sim._current_event
                    self._sched_at = self._fire_at = sim.now
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.triggered = True
                self._exc = exc
                sim._schedule(self, 0.0)
                sim._register_failure(self, exc)
                return
            finally:
                sim._active_process = None
            if target is PARKED:
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances (Timeout, Process, Resource grants, ...)"
                )
            if not target.processed:
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
            if not sim.next_is_mine():
                # resume at the same timestamp via a relay event carrying
                # the target's outcome, behind what is already due
                hook = Event(sim)
                hook.callbacks.append(self._resume)
                if target._exc is not None:
                    hook.fail(target._exc)
                else:
                    hook.succeed(target._value)
                return
            # the relay would be the very next dispatch: continue here
            throw, send = target._exc, target._value


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"expected Event, got {type(ev)!r}")
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        done = []
        for ev in self.events:
            if ev.processed:
                done.append(ev)
            else:
                ev.callbacks.append(self._check)
        if done:  # one hook checks them in list order: nothing runs between
            sim.call_later(0.0, self._check_all, done)

    def _check_all(self, done: list) -> None:
        for ev in done:
            self._check(ev)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; value is the list of
    child values in construction order.  Fails fast on the first failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when the first child event triggers; value is ``(event,
    value)`` for that child.  Fails if the first child to trigger failed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed((event, event._value))


class Simulator:
    """Owns the clock and the event heap; runs the simulation.

    Typical use::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(5.0)
            return sim.now

        proc = sim.process(hello(sim))
        sim.run()
        assert proc.value == 5.0
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._failures: list[tuple[Process, BaseException]] = []
        #: the :class:`~repro.simulator.trace.Tracer` (or None), the one
        #: simulated-time recorder: while set, scheduled events record
        #: causal provenance and every recording site in the stack writes
        #: to it; the default None keeps the hot path free of recording.
        self.tracer: Optional[Tracer] = None
        #: the event currently being processed by :meth:`step` — the
        #: cause of anything scheduled during its callbacks.  Cleared as
        #: soon as the dispatch returns: events scheduled from *driver*
        #: code (between ``run()`` calls, or before the first) are causal
        #: roots and must not inherit a stale cause from the previous
        #: dispatch (see the critical-path profiler).
        self._current_event: Optional[Event] = None
        #: optional ``hook(event)`` called by :meth:`step` *instead of*
        #: ``event._process()`` — the hook must make that call itself,
        #: and may do whatever it likes around it.  The default None
        #: costs one ``is None`` check per dispatched event.
        self.dispatch_hook: Optional[Callable[[Event], None]] = None
        #: total events dispatched by :meth:`step` (cancelled heap entries
        #: excluded) — hostbench's ``events_per_msg`` and ns/event read it
        self.events_processed: int = 0
        #: True while the last callback of a dispatch runs (set by
        #: ``Event._process``, cleared when the dispatch returns)
        self._tail = False
        #: ``(at, seq, fn, arg, tag)``: ``fn(arg)``, owed in place of an
        #: event (a resume is ``(now, 0, process._step, value, None)``)
        self._owed: Optional[tuple] = None
        #: the bound of the ``run(until)`` in progress: no wait past it
        #: is taken in place
        self._until = float("inf")
        #: how many queue pairs this world has numbered (``qp_num`` is a
        #: per-world serial, so a label never depends on what else the
        #: process simulated before)
        self.qp_serial: int = 0

    # -- factory helpers --------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, tag: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` microseconds.

        ``tag`` labels the delay for critical-path attribution."""
        t = Timeout(self, delay, value)
        if tag is not None:
            t._ptag = tag
        return t

    def timeout_at(self, when: float, value: Any = None, tag: Any = None) -> Event:
        """Create an event that triggers at the absolute time ``when``.

        For a due time that is itself a sum (a run of descriptors):
        ``now + d1`` then ``+ d2`` rounds differently from ``now + (d1 + d2)``,
        and the caller has already done the former."""
        ev = Event(self)
        ev.triggered = True
        ev._value = value
        ev._ptag = tag
        self._schedule(ev, at=when)
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, at: Optional[float] = None,
        seq: Optional[int] = None,
    ) -> None:
        if seq is None:
            seq = self._seq = self._seq + 1
        due = self.now + delay if at is None else at
        if due < self.now:
            raise ValueError(f"{event!r} due at {due!r}, before now={self.now!r}")
        heappush(self._heap, (due, seq, event))
        if self.tracer is not None:
            event._cause = self._current_event
            event._sched_at = self.now
            event._fire_at = due

    def next_is_mine(self, at: Optional[float] = None) -> bool:
        """Whether an event the running process would schedule at ``at``
        (default ``now``) and wait on would be the very next dispatch: no
        heap entry is due by ``at`` (one due at ``at`` goes first), ``at``
        is within the bound of the ``run()`` in progress, the dispatch in
        progress has no callback left and no resume is owed."""
        if not self._tail or self._owed is not None:
            return False
        if at is None:
            at = self.now
        elif at > self._until:
            return False
        heap = self._heap
        return not heap or heap[0][0] > at

    def _advance(self, at: float, tag: Any = None) -> None:
        """Move ``now`` to ``at`` inside the running dispatch, in place of
        the event :meth:`next_is_mine` said would be the next dispatch.
        Traced, a stand-in that is never dispatched carries that event's
        provenance and becomes the cause of what is scheduled next."""
        if self.tracer is not None:
            ev = Event(self)
            ev.triggered = ev.processed = True
            ev._cause = self._current_event
            ev._sched_at, ev._fire_at, ev._ptag = self.now, at, tag
            self._current_event = ev
        self.now = at

    def hold_until(self, at: float, tag: Any = None):
        """Wait until the absolute time ``at`` (generator): in place when
        its event would be the next dispatch, else on :meth:`timeout_at`."""
        if self.next_is_mine(at):
            self._advance(at, tag)
        else:
            yield self.timeout_at(at, tag=tag)

    def call_later(
        self, delay: float, fn: Callable[[Any], None], arg: Any = None,
        tag: Any = None,
    ) -> None:
        """Run ``fn(arg)`` ``delay`` microseconds from now, ``tag``
        labelling the delay: owed, its ``seq`` reserved, when its event
        would be the next dispatch (``Event._process`` pays it), else on
        an event."""
        at = self.now + delay
        if self.next_is_mine(at):
            self._seq += 1
            self._owed = (at, self._seq, fn, arg, tag)
        else:
            self._call_event(at, fn, arg, tag)

    def _call_event(self, at, fn, arg, tag, seq: Optional[int] = None) -> None:
        ev = Event(self)
        ev.triggered = True
        ev._ptag = tag
        ev.callbacks.append(lambda _e: fn(arg))
        self._schedule(ev, at=at, seq=seq)

    def _register_failure(self, proc: Process, exc: BaseException) -> None:
        self._failures.append((proc, exc))

    # -- running -------------------------------------------------------------

    def step(self) -> None:
        """Process the next event in the heap."""
        time, _seq, event = heappop(self._heap)
        if event.cancelled:
            return
        self.now = time
        self.events_processed += 1
        self._current_event = event
        had_waiters = bool(event.callbacks)
        hook = self.dispatch_hook
        try:
            if hook is None:
                event._process()
            else:
                hook(event)
        finally:
            # Anything scheduled after this point comes from driver code,
            # not from this dispatch: drop the cause so causal roots of a
            # later transfer never chain to the previous one.
            self._current_event = None
            self._tail = False
        # A process that died with nobody waiting aborts the simulation;
        # otherwise the exception was delivered to the waiters.
        if isinstance(event, Process) and event._exc is not None and not had_waiters:
            raise event._exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock passes ``until``.

        Returns the final simulated time.  This is the only loop that
        dispatches events, profiled or not: every dispatch goes through
        :meth:`step`, and observers ride on :attr:`dispatch_hook`.
        """
        heap = self._heap
        step = self.step
        if until is None:
            while heap:
                step()
            return self.now
        self._until = until
        try:
            while heap:
                nxt = self.peek()
                if not heap:
                    break
                if nxt > until:
                    self.now = until
                    break
                step()
        finally:
            self._until = float("inf")
        return self.now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else float("inf")
