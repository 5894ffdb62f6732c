"""Unit tests for the discrete-event engine."""

from unittest import mock

import pytest

from repro.obs.profile import critical_path
from repro.simulator import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Store,
    Timeout,
)
from repro.simulator.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.processed
        assert ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_raises_on_value_access(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError):
            _ = ev.value

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(sim.now))
        ev.succeed(delay=7.5)
        sim.run()
        assert seen == [7.5]


class TestTimeout:
    def test_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(10.0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 10.0

    def test_zero_delay_ok(self, sim):
        def proc(sim):
            yield sim.timeout(0.0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_value(self, sim):
        def proc(sim):
            got = yield sim.timeout(1.0, value="hello")
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "hello"


class TestOrdering:
    def test_same_time_fifo(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(5.0)
            order.append(tag)

        for tag in range(5):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_earlier_event_first(self, sim):
        order = []

        def proc(sim, delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(sim, 10.0, "late"))
        sim.process(proc(sim, 1.0, "early"))
        sim.run()
        assert order == ["early", "late"]

    def test_run_until(self, sim):
        ticks = []

        def ticker(sim):
            while True:
                yield sim.timeout(1.0)
                ticks.append(sim.now)

        sim.process(ticker(sim))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert sim.now == 5.5

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestProcess:
    def test_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "done"

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(4.0)
            return 99

        def parent(sim):
            got = yield sim.process(child(sim))
            return (sim.now, got)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == (4.0, 99)

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def late(sim):
            yield sim.timeout(10.0)
            got = yield ev
            return got

        p = sim.process(late(sim))
        sim.run()
        assert p.value == "early"

    def test_yield_non_event_is_error(self, sim):
        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_unhandled_exception_aborts_run(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("kaput")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="kaput"):
            sim.run()

    def test_exception_propagates_to_waiter(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def parent(sim):
            try:
                yield sim.process(bad(sim))
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "caught inner"

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_is_alive(self, sim):
        def proc(sim):
            yield sim.timeout(5.0)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as irq:
                return ("interrupted", irq.cause, sim.now)

        def interrupter(sim, victim):
            yield sim.timeout(3.0)
            victim.interrupt("wakeup")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == ("interrupted", "wakeup", 3.0)

    def test_interrupting_a_parked_taker_withdraws_its_park(self, sim):
        box = Store(sim, name="box")
        seen = []

        def taker(name):
            try:
                seen.append((name, (yield from box.take()), sim.now))
            except Interrupt as irq:
                seen.append((name, irq.cause, sim.now))

        def driver(first):
            yield sim.timeout(3.0)
            first.interrupt("moved on")
            yield sim.timeout(2.0)
            box.put("item")

        first = sim.process(taker("first"))
        sim.process(taker("second"))
        sim.process(driver(first))
        sim.run()
        assert seen == [("first", "moved on", 3.0), ("second", "item", 5.0)]
        assert not box._getters and len(box) == 0

    @pytest.mark.parametrize("parked", [True, False])
    def test_interrupt_after_put_in_one_callback_wins(self, sim, parked):
        # put, then interrupt, in the same callback: the resume owed to a
        # parked taker is dropped as the get event's callback is disarmed
        box = Store(sim)
        seen = []

        def taker():
            try:
                got = (yield from box.take()) if parked else (yield box.get())
                seen.append(got)
            except Interrupt as irq:
                seen.append(irq.cause)

        def driver(victim):
            yield sim.timeout(1.0)
            box.put("item")
            victim.interrupt("irq")
            yield sim.timeout(1.0)
            seen.append(len(box))

        sim.process(driver(sim.process(taker())))
        sim.run()
        assert seen == ["irq", 0]

    def test_interrupt_finished_process_rejected(self, sim):
        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_values_in_order(self, sim):
        def proc(sim, delay, val):
            yield sim.timeout(delay)
            return val

        def parent(sim):
            ps = [sim.process(proc(sim, d, v)) for d, v in [(5, "a"), (1, "b")]]
            vals = yield sim.all_of(ps)
            return (sim.now, vals)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == (5.0, ["a", "b"])

    def test_all_of_empty(self, sim):
        def parent(sim):
            vals = yield sim.all_of([])
            return vals

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == []

    def test_any_of_first_wins(self, sim):
        def proc(sim, delay, val):
            yield sim.timeout(delay)
            return val

        def parent(sim):
            fast = sim.process(proc(sim, 1, "fast"))
            slow = sim.process(proc(sim, 9, "slow"))
            ev, val = yield sim.any_of([fast, slow])
            return (sim.now, val, ev is fast)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == (1.0, "fast", True)

    def test_all_of_propagates_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("nope")

        def ok(sim):
            yield sim.timeout(2.0)

        def parent(sim):
            try:
                yield sim.all_of([sim.process(bad(sim)), sim.process(ok(sim))])
            except ValueError:
                return "failed"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "failed"

    def test_all_of_with_pre_triggered_event(self, sim):
        ev = sim.event()
        ev.succeed(7)

        def parent(sim):
            t = sim.timeout(2.0, value=8)
            vals = yield sim.all_of([ev, t])
            return vals

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == [7, 8]

    def test_condition_rejects_non_event(self, sim):
        with pytest.raises(TypeError):
            AllOf(sim, [42])


class TestDeterminism:
    def test_repeated_runs_identical(self):
        def make_trace():
            sim = Simulator()
            trace = []

            def worker(sim, tag, delays):
                for d in delays:
                    yield sim.timeout(d)
                    trace.append((sim.now, tag))

            sim.process(worker(sim, "a", [1, 1, 3]))
            sim.process(worker(sim, "b", [2, 1, 2]))
            sim.process(worker(sim, "c", [1, 2, 2]))
            sim.run()
            return trace

        assert make_trace() == make_trace()


class TestCancel:
    def test_cancelled_timeout_does_not_advance_clock(self, sim):
        def proc(sim):
            t = sim.timeout(1000.0)
            yield sim.timeout(5.0)
            t.cancel()
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 5.0
        assert sim.now == 5.0  # the dead timer never dragged the clock

    def test_losing_any_of_arm_cancellable(self, sim):
        def proc(sim):
            fast = sim.timeout(3.0, "fast")
            slow = sim.timeout(500.0, "slow")
            ev, value = yield sim.any_of([fast, slow])
            slow.cancel()
            return value

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "fast"
        assert sim.now == 3.0

    def test_cancel_is_idempotent(self, sim):
        t = sim.timeout(10.0)
        t.cancel()
        t.cancel()
        sim.run()
        assert sim.now == 0.0

    def test_cancel_processed_event_rejected(self, sim):
        t = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            t.cancel()

    def test_peek_skips_cancelled(self, sim):
        first = sim.timeout(1.0)
        sim.timeout(2.0)
        first.cancel()
        assert sim.peek() == 2.0

    def test_run_until_ignores_cancelled_head(self, sim):
        sim.timeout(50.0).cancel()
        sim.timeout(100.0)
        sim.run(until=75.0)
        assert sim.now == 75.0


class TestStepHygiene:
    """The dispatch cursor must not leak across driver-code boundaries."""

    def test_current_event_cleared_after_run(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        # events scheduled from driver code after a run are causal roots;
        # a stale cursor here is what falsely chained back-to-back
        # profiled transfers (see test_profile.py)
        assert sim._current_event is None

    def test_root_event_between_runs_has_no_cause(self, sim):
        from repro.simulator import Tracer

        sim.tracer = Tracer()

        def proc(sim):
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        p2 = sim.process(proc(sim))  # scheduled from driver code
        root = p2
        # the kick-off event of the new process must be a causal root,
        # not a child of the previous run's last dispatched event
        sim.run()
        walk = root
        seen = 0
        while walk is not None and seen < 100:
            walk = walk._cause
            seen += 1
        assert seen < 100  # chain terminates (no cross-run cycle/link)

    def test_events_processed_counts_dispatches(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        sim.run()
        assert sim.events_processed > 0

    def test_cancelled_events_not_counted(self, sim):
        before_events = sim.events_processed
        sim.timeout(5.0).cancel()
        sim.run()
        assert sim.events_processed == before_events


class TestTimeoutAt:
    #: added left to right these reach 3.801; right to left, 3.8009999999999997
    DELAYS = (0.1, 0.2, 0.3, 0.7, 1e-3, 2.5)

    def test_fires_exactly_where_a_chain_of_timeouts_arrives(self, sim):
        def chain(sim):
            for d in self.DELAYS:
                yield sim.timeout(d)
            return sim.now

        arrived = sim.process(chain(sim))
        sim.run()
        when = 0.0
        for d in self.DELAYS:
            when = when + d
        assert arrived.value == when  # ==, not approx

        other = Simulator()
        fired = []
        ev = other.timeout_at(when, value="v", tag="wire")
        ev.callbacks.append(lambda e: fired.append((other.now, e.value)))
        other.run()
        assert fired == [(when, "v")] and ev._ptag == "wire"
        # one timeout of the summed delays need not land there
        back = 0.0
        for d in reversed(self.DELAYS):
            back = d + back
        assert 0.0 + back != when

    def test_same_time_events_keep_scheduling_order(self, sim):
        order = []
        for name, make in (
            ("a", lambda: sim.timeout(3.0)),
            ("b", lambda: sim.timeout_at(3.0)),
            ("c", lambda: sim.event().succeed(delay=3.0)),
            ("d", lambda: sim.timeout_at(3.0)),
        ):
            make().callbacks.append(lambda _e, name=name: order.append(name))
        sim.run()
        assert order == ["a", "b", "c", "d"] and sim.now == 3.0

    def test_cancel_and_run_until_behave_as_for_timeout(self, sim):
        sim.timeout_at(5.0).cancel()
        assert sim.peek() == float("inf")
        sim.run()
        assert sim.now == 0.0 and sim.events_processed == 0
        fired = []
        sim.timeout_at(7.0).callbacks.append(lambda _e: fired.append(sim.now))
        assert sim.run(until=6.0) == 6.0 and not fired
        assert sim.run() == 7.0 and fired == [7.0]

    def test_at_now_is_legal_and_the_past_raises_at_the_call(self, sim):
        sim.timeout(2.0)
        sim.run()
        sim.timeout_at(2.0)  # due now: a zero-delay event
        with pytest.raises(ValueError, match=r"Event.*1\.5.*now=2\.0"):
            sim.timeout_at(1.5)
        assert len(sim._heap) == 1

    def test_records_provenance_like_any_scheduled_event(self, sim):
        sim.tracer = object()
        ev = sim.timeout_at(4.0, tag=("run", ()))
        assert (ev._sched_at, ev._fire_at, ev._cause) == (0.0, 4.0, None)


class TestHoldUntil:
    """A wait to a deadline is taken in place only when nothing else could
    dispatch first: not past the bound of ``run(until)``, not on a tie."""

    @staticmethod
    def holder(sim):
        yield sim.timeout(1.0)
        yield from sim.hold_until(6.0, tag="wire")
        return sim.now, "held"

    def test_bounded_run_stops_at_its_bound_and_resumes_the_hold(self, sim):
        proc = sim.process(self.holder(sim))
        assert sim.run(until=5.5) == 5.5
        assert not proc.triggered and sim.peek() == 6.0  # the hold's event
        assert sim.run() == 6.0
        free = Simulator()
        alone = free.process(self.holder(free))
        free.run()
        assert proc.value == alone.value == (6.0, "held")
        assert sim.events_processed == free.events_processed + 1

    def test_a_tie_with_an_earlier_entry_is_not_taken_in_place(self, sim):
        order = []
        sim.timeout(6.0).callbacks.append(lambda _e: order.append(("timer", sim.now)))

        def prog():
            yield from self.holder(sim)
            order.append(("hold", sim.now))

        sim.process(prog())
        sim.run()
        assert order == [("timer", 6.0), ("hold", 6.0)]
        assert sim.events_processed == 4  # start, timeout, timer, the hold

    def test_the_bound_is_reset_when_run_returns_or_raises(self, sim):
        sim.timeout(2.0)
        sim.run(until=1.0)
        assert sim._until == float("inf")

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("boom")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run(until=10.0)
        assert sim._until == float("inf")


class TestOwedCall:
    """A call, a trigger or a condition hook whose event would be the next
    dispatch is owed and paid after the running callback, where that event
    would have run: behind nothing scheduled later, ahead of anything due
    earlier that the rest of the callback scheduled."""

    def test_an_earlier_entry_scheduled_after_the_owe_goes_first(self, sim):
        order = []

        def prog():
            yield sim.timeout(1.0)
            sim.call_later(2.0, order.append, "call", tag="cqe")  # owed
            sim.timeout(1.0).callbacks.append(lambda _e: order.append(sim.now))

        sim.process(prog())
        sim.run()
        assert order == [2.0, "call"] and sim.now == 3.0
        # start, timeout, the later timer, the call demoted to its event
        assert sim.events_processed == 4

    def test_a_tie_at_the_due_time_goes_to_the_owed_call(self, sim):
        order = []

        def prog():
            yield sim.timeout(1.0)
            sim.call_later(2.0, lambda _: order.append(("call", sim.now)))
            timer = sim.timeout(2.0)
            timer.callbacks.append(lambda _e: order.append(("timer", sim.now)))

        sim.process(prog())
        sim.run()
        assert order == [("call", 3.0), ("timer", 3.0)]
        assert sim.events_processed == 3  # start, timeout, timer: the call is paid

    def test_a_call_past_the_run_bound_is_not_owed(self, sim):
        seen = []

        def prog():
            yield sim.timeout(1.0)
            sim.call_later(2.0, seen.append, "late")

        sim.process(prog())
        assert sim.run(until=2.0) == 2.0
        assert seen == [] and sim.peek() == 3.0  # the call's event
        sim.run()
        assert seen == ["late"] and sim.now == 3.0

    def test_an_untraced_owed_call_constructs_no_event(self, sim):
        made, seen = [], []
        init = Event.__init__

        def counted(ev, owner):
            made.append(ev)
            init(ev, owner)

        def prog():
            yield sim.timeout(1.0)
            sim.call_later(2.5, seen.append, sim.now, tag="cqe")

        sim.process(prog())
        with mock.patch.object(Event, "__init__", counted):
            sim.run()
        assert seen == [1.0] and sim.now == 3.5
        assert [type(ev) for ev in made] == [Timeout]  # the process's own

    def test_a_traced_owed_call_is_a_stand_in_on_the_critical_path(self, sim):
        sim.tracer = Tracer()
        done = sim.event()

        def prog():
            yield sim.timeout(1.0, tag="pack")
            sim.call_later(2.5, done.succeed, "cqe", tag="wire")

        sim.process(prog())
        sim.run()
        assert sim.events_processed == 2  # start and timeout
        attr = critical_path(done)
        assert attr.categories["wire"] == pytest.approx(2.5)
        assert attr.total_us == pytest.approx(3.5)
        assert attr.closure_error() < 1e-9

    def test_an_unwaited_trigger_then_a_yield_takes_no_event(self, sim):
        def prog():
            yield sim.timeout(1.0)
            ev = sim.event()
            ev.succeed("v")  # owed: its dispatch would be the next
            return (yield ev), sim.now

        proc = sim.process(prog())
        sim.run()
        assert proc.value == ("v", 1.0)
        assert sim.events_processed == 2  # start and timeout

    def test_a_yield_after_an_entry_scheduled_in_between_resumes_ahead_of_it(self):
        def run():
            sim = Simulator()
            order = []

            def prog():
                yield sim.timeout(1.0)
                ev = sim.event()
                ev.succeed("v")
                sim.timeout(0.0).callbacks.append(lambda _e: order.append("timer"))
                order.append((yield ev))

            sim.process(prog())
            sim.run()
            return order, sim.events_processed

        order, events = run()
        with mock.patch.object(Simulator, "next_is_mine", lambda s, at=None: False):
            hop_order, hop_events = run()  # every hop an event
        assert order == hop_order == ["v", "timer"]
        assert (events, hop_events) == (3, 4)  # the trigger is paid in place

    def test_cancel_withdraws_an_owed_trigger(self, sim):
        seen = []

        def prog():
            yield sim.timeout(1.0)
            ev = sim.event()
            ev.callbacks.append(seen.append)
            ev.callbacks.clear()
            ev.succeed()
            ev.cancel()

        sim.process(prog())
        sim.run()
        assert sim._owed is None and seen == []

    def test_all_of_over_processed_children_takes_one_hook(self, sim):
        done = [sim.event() for _ in range(3)]
        for i, ev in enumerate(done):
            ev.succeed(i)
        sim.run()
        before = sim.events_processed
        cond = sim.all_of([done[0], sim.timeout(1.0, value="t"), *done[1:]])
        sim.run()
        assert cond.value == [0, "t", 1, 2]
        # one hook (driver code owes nothing), the timeout; the AllOf's own
        # trigger is owed in the timeout's dispatch
        assert sim.events_processed - before == 2

    def test_a_condition_built_in_a_dispatch_checks_after_it(self, sim):
        ready = sim.event()
        ready.succeed("r")
        seen = []

        def prog():
            yield sim.timeout(1.0)
            cond = sim.all_of([ready])
            seen.append(cond.triggered)  # the hook is owed, not run here
            seen.append((yield cond))

        sim.process(prog())
        sim.run()
        assert seen == [False, ["r"]]
        # ready, start, timeout and the AllOf, which its waiter made an event
        assert sim.events_processed == 4

    def test_a_failed_processed_child_fails_the_all_of_in_list_order(self, sim):
        first, second = KeyError("first"), KeyError("second")
        children = [sim.event() for _ in range(3)]
        children[0].succeed(0)
        children[1].fail(first)
        children[2].fail(second)

        def prog():
            yield sim.timeout(1.0)
            try:
                yield sim.all_of([*children, sim.timeout(5.0)])
            except KeyError as exc:
                return exc, sim.now

        proc = sim.process(prog())
        sim.run()
        assert proc.value == (first, 1.0)


class TestPastDueRejectedWhereScheduled:
    """A negative delay used to reach the heap and surface, at some later
    ``step()``, as a "time went backwards" that named nobody."""

    def test_succeed_with_negative_delay(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError, match="before now=0.0"):
            ev.succeed(delay=-1.0)
        assert not sim._heap

    def test_fail_with_negative_delay(self, sim):
        sim.timeout(3.0)
        sim.run()
        with pytest.raises(ValueError, match=r"due at 2\.0, before now=3\.0"):
            sim.event().fail(RuntimeError("x"), delay=-1.0)
        assert not sim._heap
