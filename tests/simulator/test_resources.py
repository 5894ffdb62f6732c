"""Unit tests for Resource, Store and Signal primitives."""

import pytest

from repro.simulator import Resource, Signal, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, capacity=1)

        def proc(sim):
            grant = yield res.acquire()
            t = sim.now
            res.release(grant)
            return t

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 0.0

    def test_serializes_capacity_one(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def proc(sim, tag):
            grant = yield res.acquire()
            start = sim.now
            yield sim.timeout(10.0)
            res.release(grant)
            spans.append((tag, start, sim.now))

        for tag in range(3):
            sim.process(proc(sim, tag))
        sim.run()
        assert spans == [(0, 0.0, 10.0), (1, 10.0, 20.0), (2, 20.0, 30.0)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def proc(sim, tag):
            grant = yield res.acquire()
            yield sim.timeout(10.0)
            res.release(grant)
            done.append((tag, sim.now))

        for tag in range(4):
            sim.process(proc(sim, tag))
        sim.run()
        assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder(sim):
            grant = yield res.acquire()
            yield sim.timeout(5.0)
            res.release(grant)

        def waiter(sim, tag, arrive):
            yield sim.timeout(arrive)
            grant = yield res.acquire()
            order.append(tag)
            res.release(grant)

        sim.process(holder(sim))
        sim.process(waiter(sim, "first", 1.0))
        sim.process(waiter(sim, "second", 2.0))
        sim.run()
        assert order == ["first", "second"]

    def test_release_unknown_grant_rejected(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release(999)

    def test_busy_time_accounting(self, sim):
        res = Resource(sim, capacity=1)

        def proc(sim):
            grant = yield res.acquire()
            yield sim.timeout(7.0)
            res.release(grant)

        sim.process(proc(sim))
        sim.run()
        assert res.busy_time == 7.0

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            grant = yield res.acquire()
            yield sim.timeout(10.0)
            res.release(grant)

        def waiter(sim):
            grant = yield res.acquire()
            res.release(grant)

        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.run(until=5.0)
        assert res.queue_length == 1
        sim.run()
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def proc(sim):
            item = yield store.get()
            return item

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter(sim):
            item = yield store.get()
            return (sim.now, item)

        def putter(sim):
            yield sim.timeout(8.0)
            store.put("late")

        g = sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert g.value == (8.0, "late")

    def test_fifo_items_and_getters(self, sim):
        store = Store(sim)
        got = []

        def getter(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(getter(sim, "g1"))
        sim.process(getter(sim, "g2"))

        def putter(sim):
            yield sim.timeout(1.0)
            store.put("a")
            store.put("b")

        sim.process(putter(sim))
        sim.run()
        assert got == [("g1", "a"), ("g2", "b")]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        assert store.try_get() == 1
        assert store.try_get() is None

    def test_len_and_peek_all(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peek_all() == [1, 2]
        assert len(store) == 2  # peek does not consume

    def test_prefilled_store_reads_as_if_each_item_was_put(self, sim):
        store = Store(sim, items=range(3))
        assert (len(store), store.total_put) == (3, 3)
        store.put(3)
        assert [store.try_get() for _ in range(5)] == [0, 1, 2, 3, None]
        assert store.total_put == 4


class TestSignal:
    def test_wait_after_set_completes_immediately(self, sim):
        sig = Signal(sim)
        sig.set("v")

        def proc(sim):
            got = yield sig.wait()
            return (sim.now, got)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (0.0, "v")

    def test_set_releases_all_waiters(self, sim):
        sig = Signal(sim)
        released = []

        def waiter(sim, tag):
            yield sig.wait()
            released.append((tag, sim.now))

        for tag in range(3):
            sim.process(waiter(sim, tag))

        def setter(sim):
            yield sim.timeout(4.0)
            sig.set()

        sim.process(setter(sim))
        sim.run()
        assert released == [(0, 4.0), (1, 4.0), (2, 4.0)]

    def test_clear_blocks_again(self, sim):
        sig = Signal(sim)
        sig.set()
        sig.clear()
        assert not sig.is_set

        def proc(sim):
            yield sig.wait()
            return sim.now

        p = sim.process(proc(sim))

        def setter(sim):
            yield sim.timeout(2.0)
            sig.set()

        sim.process(setter(sim))
        sim.run()
        assert p.value == 2.0

    def test_double_set_is_noop(self, sim):
        sig = Signal(sim)
        sig.set(1)
        sig.set(2)  # ignored

        def proc(sim):
            got = yield sig.wait()
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 1


class TestStoreCancelGet:
    def test_cancel_pending_getter(self, sim):
        store = Store(sim)
        ev = store.get()
        assert store.cancel_get(ev) is True
        store.put("x")  # must not be consumed by the cancelled getter

        def proc(sim):
            got = yield store.get()
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "x"

    def test_cancel_returns_false_once_satisfied(self, sim):
        store = Store(sim)
        store.put("x")
        ev = store.get()  # satisfied immediately
        assert store.cancel_get(ev) is False

        def proc(sim):
            got = yield ev
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "x"
