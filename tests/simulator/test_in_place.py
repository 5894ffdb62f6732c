"""The in-place rule against every-hop-is-an-event.

When :meth:`Simulator.next_is_mine` holds, a process takes an idle grant,
a queued item or the outcome of an already-processed event in place,
without the event it would otherwise wait for; a put to a process parked
in ``Store.take()``, a process start, a delayed call
(:meth:`Simulator.call_later`), an unwaited zero-delay trigger and a
condition's hook over processed children are owed, and paid when the
running callback returns; and :meth:`Simulator.hold_until` moves the clock
to a future deadline when nothing else is due by then.  That event would
have been the very next dispatch, so nothing can tell the two apart except
``events_processed``.
The differential test runs random programs twice — as written, and with
the predicate forced to ``False`` (every hop an event, as before the rule;
an unwaited end takes no event in either run, it does not ask the
predicate) — and requires the same resumes in the same order with the
same ``(now, value)`` and shared state, and event counts that differ by
exactly the number of times the predicate held, less the owed calls that
the rest of their callback demoted to events.  Traced, every finished
process must also walk the same critical path, with closure, and the
tracer must hold the same series and wait histograms.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import critical_path
from repro.simulator import (
    Event,
    Resource,
    Signal,
    SimulationError,
    Simulator,
    Store,
)
from repro.simulator.trace import Tracer

DELAYS = st.sampled_from([0.0, 0.0, 1.0, 2.5, 0.3, 0.7])

LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 2), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 99)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("fire"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("set"), st.integers(0, 1)),
    st.tuples(st.just("clear"), st.integers(0, 1)),
    st.tuples(st.just("sigwait"), st.integers(0, 1)),
    st.tuples(st.just("all_of"), DELAYS, DELAYS),
    st.tuples(st.just("join"), st.integers(0, 10)),
    st.tuples(st.just("bump"),),
    # a plain callback (the tail of its dispatch) putting once or twice
    st.tuples(
        st.just("cbput"),
        st.integers(0, 1),
        st.one_of(st.none(), st.integers(0, 1)),
        st.integers(0, 99),
        DELAYS,
    ),
    # a put, then an in-place take or hold in the same callback
    st.tuples(st.just("puttake"), st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("puthold"), st.integers(0, 1), st.integers(0, 2), DELAYS),
    # a wait to a deadline, alone or right after a put (which owes a resume)
    st.tuples(st.just("until"), DELAYS),
    st.tuples(st.just("putuntil"), st.integers(0, 1), DELAYS),
    # a delayed call, from the body or from a plain callback after a timer
    st.tuples(st.just("call"), st.booleans(), DELAYS, DELAYS),
    # a condition over processed events, one maybe failed, and a pending one
    st.tuples(
        st.just("cond"),
        st.sampled_from(["all_of", "any_of"]),
        st.integers(2, 3),
        st.one_of(st.none(), st.integers(0, 2)),
        DELAYS,
    ),
)

OPS = st.one_of(
    LEAF_OPS,
    st.tuples(st.just("spawn"), st.lists(LEAF_OPS, max_size=4)),
)

PROGRAMS = st.fixed_dictionaries({
    "capacities": st.lists(st.integers(1, 2), min_size=3, max_size=3),
    "prefill": st.lists(st.integers(0, 2), min_size=2, max_size=2),
    "start": DELAYS,
    "bodies": st.lists(st.lists(OPS, max_size=8), min_size=2, max_size=5),
})


def execute(program, traced=False):
    """Run ``program``; return its resume log, final state and events."""
    sim = Simulator()
    if traced:
        sim.tracer = Tracer()
    res = [
        Resource(sim, capacity=c, name=f"r{i}")
        for i, c in enumerate(program["capacities"])
    ]
    stores = [
        Store(sim, name=f"s{i}", items=range(n))
        for i, n in enumerate(program["prefill"])
    ]
    signals = [Signal(sim, name=f"g{i}") for i in range(2)]
    events = [sim.event() for _ in range(2)]
    shared = {"x": 0}
    log = []
    procs = []

    def note(pid, value):
        log.append((pid, sim.now, repr(value), shared["x"]))

    def sampler(pid):
        # reads shared state at its grant, as copy_work reads dma_active
        yield sim.timeout(program["start"])
        grant = yield from res[0].take()
        note(pid, grant)
        yield sim.timeout(1.0)
        res[0].release(grant)
        return pid

    def competitor(pid):
        # due at the sampler's request instant, scheduled after it: runs
        # between that request and its grant
        yield sim.timeout(program["start"])
        shared["x"] += 1
        note(pid, None)
        if not events[0].triggered:
            events[0].succeed(pid)  # two waiters below
        return pid

    def waiter(pid):
        note(pid, (yield events[0]))
        note(pid, (yield events[0]))  # already processed: a relay
        return pid

    def taker(pid):
        # parked in take() whenever its store runs dry: a put owes it
        for _ in range(3):
            note(pid, (yield from stores[pid % 2].take()))
        return pid

    def hold(pid, r, delay):
        grant = yield from res[r].take()
        note(pid, grant)
        yield sim.timeout(delay)
        res[r].release(grant)

    def cbput(s1, s2, value):
        stores[s1].put(value)
        if s2 is not None:
            stores[s2].put(value + 100)

    def called(value):
        # an owed call may itself owe a resume, to a parked taker
        shared["x"] += 1
        note(value, "called")
        stores[value % 2].put(value)

    def condition(pid, which, k, failed, delay):
        done = [sim.event() for _ in range(k)]
        for i, ev in enumerate(done):
            if i == failed:
                ev.fail(KeyError(pid))
            else:
                ev.succeed(i)
        yield sim.timeout(0.0)  # every child processed
        parts = [done[0], sim.timeout(delay, value="t"), *done[1:]]
        try:
            value = yield getattr(sim, which)(parts)
        except KeyError as exc:
            return ("failed", exc.args)
        if which == "any_of":
            return (parts.index(value[0]), value[1])
        return value

    def body(pid, ops):
        for op in ops:
            kind = op[0]
            if kind == "timeout":
                note(pid, (yield sim.timeout(op[1], value=op[1])))
            elif kind == "hold":
                yield from hold(pid, op[1], op[2])
            elif kind == "put":
                stores[op[1]].put(op[2])
            elif kind == "puttake":
                stores[op[1]].put(pid)
                note(pid, (yield from stores[op[2]].take()))
            elif kind == "puthold":
                stores[op[1]].put(pid)
                yield from hold(pid, op[2], op[3])
            elif kind in ("until", "putuntil"):
                if kind == "putuntil":
                    stores[op[1]].put(pid)
                yield from sim.hold_until(sim.now + op[-1], tag="hold")
                note(pid, None)
            elif kind == "cbput":
                timer = sim.timeout(op[4])
                timer.callbacks.append(lambda _ev, op=op: cbput(*op[1:4]))
            elif kind == "call":
                if op[1]:
                    timer = sim.timeout(op[3])
                    timer.callbacks.append(
                        lambda _ev, d=op[2], v=pid + 200: sim.call_later(
                            d, called, v, tag="call"
                        )
                    )
                else:
                    sim.call_later(op[2], called, pid + 100, tag="call")
            elif kind == "cond":
                note(pid, (yield from condition(pid, *op[1:])))
            elif kind == "spawn":
                procs.append(sim.process(body(len(procs), op[1])))
            elif kind == "get":
                note(pid, (yield from stores[op[1]].take()))
            elif kind == "wait":
                note(pid, (yield events[op[1]]))
            elif kind == "fire":
                if not events[op[1]].triggered:
                    events[op[1]].succeed(pid, delay=op[2])
            elif kind == "set":
                signals[op[1]].set(pid)
            elif kind == "clear":
                signals[op[1]].clear()
            elif kind == "sigwait":
                note(pid, (yield signals[op[1]].wait()))
            elif kind == "all_of":
                parts = [sim.timeout(op[1], value=1), sim.timeout(op[2], value=2)]
                if events[0].processed:
                    parts.append(events[0])
                note(pid, (yield sim.all_of(parts)))
            elif kind == "join":
                if op[1] < len(procs):  # an earlier process: never a cycle
                    note(pid, (yield procs[op[1]]))
            else:
                shared["x"] += 1
        return pid

    for gen in (sampler, competitor, waiter, waiter, taker, taker):
        procs.append(sim.process(gen(len(procs))))
    for ops in program["bodies"]:
        procs.append(sim.process(body(len(procs), ops)))
    sim.run()
    final = (
        sim.now,
        shared["x"],
        [(r.in_use, r.queue_length, r.busy_time) for r in res],
        [(list(s), len(s._getters)) for s in stores],
        [(g.is_set, g._value) for g in signals],
        [(e.triggered, e._value) for e in events],
        [(p.triggered, p._value) for p in procs],
    )
    assert sim._owed is None
    if traced:
        tracer = sim.tracer
        paths = [critical_path(p) for p in procs if p.processed]
        assert all(path.closure_error() < 1e-9 for path in paths)
        final += (
            [(path.categories, path.steps) for path in paths],
            tracer.series,
            tracer.metrics.snapshot(),
        )
    return log, final, sim.events_processed


def _twin(program, traced):
    rule, call_event = Simulator.next_is_mine, Simulator._call_event
    taken, demoted = [], [0]

    def counting(sim, at=None):
        mine = rule(sim, at)
        taken.append(mine)
        return mine

    def counted(sim, at, fn, arg, tag, seq=None):
        demoted[0] += seq is not None
        call_event(sim, at, fn, arg, tag, seq)

    with mock.patch.object(Simulator, "next_is_mine", counting), \
            mock.patch.object(Simulator, "_call_event", counted):
        log, final, events = execute(program, traced)
    with mock.patch.object(Simulator, "next_is_mine", lambda sim, at=None: False):
        hop_log, hop_final, hop_events = execute(program, traced)
    assert log == hop_log
    assert final == hop_final
    # each time the predicate held, one event was not scheduled, except
    # an owed call that was demoted to its event after all
    assert hop_events - events == sum(taken) - demoted[0]


@settings(max_examples=200, deadline=None)
@given(PROGRAMS)
def test_in_place_rule_matches_every_hop_an_event(program):
    _twin(program, traced=False)


@settings(max_examples=80, deadline=None)
@given(PROGRAMS)
def test_traced_in_place_rule_walks_the_same_critical_path(program):
    _twin(program, traced=True)


class TestInPlace:
    def test_idle_grant_and_queued_item_take_no_event(self):
        sim = Simulator()
        cpu = Resource(sim, name="cpu")
        box = Store(sim, items=["a"])

        def prog():
            grant = yield from cpu.take()
            item = yield from box.take()
            cpu.release(grant)
            return item

        proc = sim.process(prog())
        sim.run()
        assert proc.value == "a"
        assert sim.events_processed == 1  # the process start, nothing else

    def test_park_and_owed_resume_and_start_take_no_event(self):
        sim = Simulator()
        box = Store(sim)
        seen = []

        def taker():
            seen.append(("taker", (yield from box.take()), sim.now))

        def child():
            seen.append(("child", sim.now))
            yield sim.timeout(0.0)

        def putter():
            yield sim.timeout(1.0)
            box.put("x")  # owed: resumes the taker after this callback
            yield sim.timeout(1.0)
            sim.process(child())  # owed start

        sim.process(taker())
        sim.process(putter())
        sim.run()
        assert seen == [("taker", "x", 1.0), ("child", 2.0)]
        # two starts from driver code, two timeouts, the child's timeout
        assert sim.events_processed == 5

    def test_unwaited_end_carries_provenance(self):
        sim = Simulator()
        sim.tracer = Tracer()

        def prog():
            yield sim.timeout(4.0, tag="pack")
            return "done"

        proc = sim.process(prog())
        sim.run()
        assert proc.processed and proc.value == "done"
        assert sim.events_processed == 2  # start and timeout, no end event
        assert proc._sched_at == proc._fire_at == 4.0
        assert proc._cause is not None
        attr = critical_path(proc)
        assert attr.total_us == pytest.approx(4.0)
        assert attr.closure_error() < 1e-9

    def test_late_joiner_resumes_at_its_own_now(self):
        sim = Simulator()
        seen = []

        def quick():
            yield sim.timeout(1.0)
            return 7

        def other():
            yield sim.timeout(1.0)

        def joiner(proc, delay):
            yield sim.timeout(delay)
            value = yield proc
            seen.append((delay, sim.now, value))

        done = sim.process(quick())
        sim.process(other())  # due at the same instant: the end is not next
        sim.process(joiner(done, 1.0))
        sim.process(joiner(done, 3.0))
        sim.run()
        assert seen == [(1.0, 1.0, 7), (3.0, 3.0, 7)]

    def test_failing_process_is_still_scheduled(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("boom")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_non_event_yield_after_in_place_continuation(self):
        sim = Simulator()
        ready = sim.event()

        def prog():
            yield sim.timeout(1.0)
            yield ready  # processed: continued in place
            yield 5

        ready.succeed()
        sim.process(prog())
        with pytest.raises(SimulationError, match="yielded 5"):
            sim.run()

    def test_hold_to_a_free_deadline_takes_no_event(self):
        sim = Simulator()
        made = []
        init = Event.__init__

        def counted(ev, owner):
            made.append(ev)
            init(ev, owner)

        def prog():
            yield from sim.hold_until(2.5, tag="pack")
            yield from sim.hold_until(4.0, tag="wire")
            return sim.now

        proc = sim.process(prog())
        with mock.patch.object(Event, "__init__", counted):
            sim.run()
        assert proc.value == 4.0
        assert sim.events_processed == 1  # the process start
        assert made == []  # untraced: not even a stand-in

    def test_traced_hold_chains_through_a_stand_in(self):
        sim = Simulator()
        sim.tracer = Tracer()

        def prog():
            yield sim.timeout(1.0, tag="pack")
            yield from sim.hold_until(2.5, tag="wire")
            yield from sim.hold_until(4.0, tag="pack")

        proc = sim.process(prog())
        sim.run()
        assert sim.events_processed == 2  # start and the timeout
        hold = proc._cause
        assert (hold._sched_at, hold._fire_at, hold._ptag) == (2.5, 4.0, "pack")
        assert hold._cause._ptag == "wire" and hold._cause._cause._ptag == "pack"
        attr = critical_path(proc)
        assert attr.categories["wire"] == pytest.approx(1.5)
        assert attr.categories["copy"] == pytest.approx(2.5)
        assert attr.total_us == pytest.approx(4.0)
        assert attr.closure_error() < 1e-9
