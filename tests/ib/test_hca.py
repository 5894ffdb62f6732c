"""Unit tests for HCA/Node timing mechanics: CPU accounting, memory-bus
contention, DMA windows, timed memory management, and when an RDMA write
lands (its own event, or its successor's)."""

import numpy as np
import pytest

from repro.ib import CostModel, Fabric, Opcode, SGE, SendWR
from repro.simulator import Simulator


def make_pair(cm=None):
    sim = Simulator()
    fabric = Fabric(sim, cm or CostModel.mellanox_2003())
    n0, n1 = fabric.connect_all(memory_capacity=64 << 20, n=2)
    return sim, n0, n1


def run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


class TestCpuWork:
    def test_zero_cost_is_free(self):
        sim, n0, _ = make_pair()

        def prog():
            t0 = sim.now
            yield from n0.cpu_work(0.0)
            return sim.now - t0

        assert run(sim, prog()) == 0.0

    def test_cpu_serializes_work(self):
        sim, n0, _ = make_pair()
        order = []

        def worker(tag):
            yield from n0.cpu_work(10.0, tag)
            order.append((tag, sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert order == [("a", 10.0), ("b", 20.0)]

    def test_busy_time_tracked(self):
        sim, n0, _ = make_pair()

        def prog():
            yield from n0.cpu_work(25.0)

        run(sim, prog())
        assert n0.cpu.busy_time == 25.0


class TestCopyContention:
    def test_uncontended_copy_matches_model(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            t0 = sim.now
            yield from n0.copy_work(1 << 20, 0)
            return sim.now - t0

        dt = run(sim, prog())
        assert dt == pytest.approx(cm.copy_startup + (1 << 20) / cm.copy_bandwidth)

    def test_contended_copy_slows(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            n0.dma_windows([(0.0, 1e9)])  # a DMA stream runs throughout
            t0 = sim.now
            yield from n0.copy_work(1 << 20, 0)
            return sim.now - t0

        dt = run(sim, prog())
        expect = cm.copy_startup + (1 << 20) * (1 + cm.membus_contention) / cm.copy_bandwidth
        assert dt == pytest.approx(expect)

    def test_penalty_scales_bytes(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            t0 = sim.now
            yield from n0.copy_work(1 << 20, 0, penalty=2.0)
            return sim.now - t0

        dt = run(sim, prog())
        assert dt == pytest.approx(cm.copy_startup + 2 * (1 << 20) / cm.copy_bandwidth)

    def test_injection_raises_dma_active_during_transfer(self):
        """A concurrent copy during an RDMA write samples dma_active > 0."""
        sim, n0, n1 = make_pair()
        size = 1 << 20
        src = n0.memory.alloc(size)
        dst = n1.memory.alloc(size)
        mrs = n0.memory.register(src, size)
        mrd = n1.memory.register(dst, size)
        qp = n0.hca.qps[1]
        seen = []

        def sender():
            yield from qp.post_send(
                SendWR(Opcode.RDMA_WRITE, sges=[SGE(src, size, mrs.lkey)],
                       remote_addr=dst, rkey=mrd.rkey)
            )

        def prober():
            # sample mid-transfer (wire time for 1 MB ~ 1.1 ms)
            yield sim.timeout(500.0)
            seen.append((n0.dma_active, n1.dma_active))
            yield sim.timeout(5000.0)
            seen.append((n0.dma_active, n1.dma_active))

        sim.process(sender())
        sim.process(prober())
        sim.run()
        mid, after = seen
        assert mid[0] >= 1  # sender gather DMA active mid-transfer
        assert after == (0, 0)  # everything quiesced afterwards

    def test_remote_dma_bracket_covers_delivery(self):
        sim, n0, n1 = make_pair()
        size = 1 << 20
        src = n0.memory.alloc(size)
        dst = n1.memory.alloc(size)
        mrs = n0.memory.register(src, size)
        mrd = n1.memory.register(dst, size)
        qp = n0.hca.qps[1]
        seen = []

        def sender():
            yield from qp.post_send(
                SendWR(Opcode.RDMA_WRITE, sges=[SGE(src, size, mrs.lkey)],
                       remote_addr=dst, rkey=mrd.rkey)
            )

        def prober():
            yield sim.timeout(600.0)  # after latency, mid-stream
            seen.append(n1.dma_active)

        sim.process(sender())
        sim.process(prober())
        sim.run()
        assert seen == [1]


class TestTimedMemoryManagement:
    def test_malloc_charges_page_faults(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            t0 = sim.now
            addr = yield from n0.malloc(1 << 20)
            return addr, sim.now - t0

        addr, dt = run(sim, prog())
        assert dt == pytest.approx(cm.malloc_time(1 << 20))

    def test_malloc_uncharged_option(self):
        sim, n0, _ = make_pair()

        def prog():
            t0 = sim.now
            yield from n0.malloc(1 << 20, charge=False)
            return sim.now - t0

        assert run(sim, prog()) == 0.0

    def test_register_charges_and_books(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            addr = n0.memory.alloc(1 << 16)
            t0 = sim.now
            mr = yield from n0.register(addr, 1 << 16)
            return mr, sim.now - t0

        mr, dt = run(sim, prog())
        assert dt == pytest.approx(cm.reg_time(1 << 16))
        assert mr in n0.memory.registered_regions

    def test_deregister_charges(self):
        sim, n0, _ = make_pair()
        cm = n0.cm

        def prog():
            addr = n0.memory.alloc(1 << 16)
            mr = yield from n0.register(addr, 1 << 16, charge=False)
            t0 = sim.now
            yield from n0.deregister(mr)
            return sim.now - t0

        assert run(sim, prog()) == pytest.approx(cm.dereg_time(1 << 16))

    def test_mfree_returns_memory(self):
        sim, n0, _ = make_pair()

        def prog():
            addr = yield from n0.malloc(1 << 16)
            yield from n0.mfree(addr)

        run(sim, prog())
        # full capacity available again
        big = n0.memory.alloc(60 << 20)
        assert big >= 0


class TestStatsCounters:
    def test_bytes_injected_counts_payload(self):
        sim, n0, n1 = make_pair()
        src = n0.memory.alloc(1000)
        dst = n1.memory.alloc(1000)
        mrs = n0.memory.register(src, 1000)
        mrd = n1.memory.register(dst, 1000)
        qp = n0.hca.qps[1]

        def sender():
            yield from qp.post_send(
                SendWR(Opcode.RDMA_WRITE, sges=[SGE(src, 1000, mrs.lkey)],
                       remote_addr=dst, rkey=mrd.rkey)
            )

        sim.process(sender())
        sim.run()
        assert n0.hca.bytes_injected == 1000
        assert n0.hca.descriptors_processed == 1

    def test_extra_bytes_count_on_wire_not_in_memory(self):
        sim, n0, n1 = make_pair()
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]
        from repro.ib.verbs import RecvWR

        def receiver():
            qp1.post_recv_nocost(RecvWR())
            cqe = yield qp1.recv_cq.wait()
            return cqe

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, payload="hdr", extra_bytes=64)
            )

        rp = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert n0.hca.bytes_injected == 64  # header occupied the wire
        assert rp.value.byte_len == 0  # but no data landed


# -- a silent write lands with its successor -------------------------------

BLOCK = 4096


def make_world(n=2):
    sim = Simulator()
    fabric = Fabric(sim, CostModel.mellanox_2003())
    return sim, fabric.connect_all(memory_capacity=4 << 20, n=n)


def region(node, nblocks, fill=False):
    """``nblocks`` registered BLOCK-byte blocks; returns (addr, mr)."""
    addr = node.memory.alloc(nblocks * BLOCK)
    if fill:
        rng = np.random.default_rng(7)
        node.memory.view(addr, nblocks * BLOCK)[:] = rng.integers(
            1, 256, nblocks * BLOCK, dtype=np.uint8
        )
    return addr, node.memory.register(addr, nblocks * BLOCK)


def write(src, smr, dst, dmr, i, opcode=Opcode.RDMA_WRITE, size=BLOCK, **kw):
    """Block ``i`` of the source region onto block ``i`` of the target."""
    kw.setdefault("signaled", False)
    return SendWR(
        opcode, sges=[SGE(src + i * BLOCK, size, smr.lkey)],
        remote_addr=dst + i * BLOCK, rkey=dmr.rkey, wr_id=i, **kw,
    )


def blocks_landed(n_src, src, n_dst, dst, nblocks):
    want = n_src.memory.view(src, nblocks * BLOCK).reshape(nblocks, BLOCK)
    got = n_dst.memory.view(dst, nblocks * BLOCK).reshape(nblocks, BLOCK)
    return [bool((w == g).all()) for w, g in zip(want, got)]


class TestSilentWritesFold:
    """An unsignaled plain RDMA write whose successor on the same QP is
    already queued schedules no landing event: it lands with the
    successor.  Each test reads target memory at a time."""

    #: ``events_processed`` of the two list-post scenarios at the parent
    #: commit (a860f56), 33 descriptors at 6.3 events apiece; 44 and 45
    #: after PR 22, 12 and 13 since the 33 injection ends are one event
    PARENT_EVENTS = {"signaled": 207, "imm": 208}

    def _list_post(self, last, enabled_plan=False):
        sim, (n0, n1) = make_world()
        src, smr = region(n0, 33, fill=True)
        dst, dmr = region(n1, 33)
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]
        if enabled_plan:
            from repro.faults import FaultInjector, FaultPlan

            # enabled, yet nothing on the send path can ever fire
            plan = FaultPlan(reg_fail_rate=1e-9)
            n0.fault_injector = n1.fault_injector = FaultInjector(
                sim, plan, n0.metrics
            )
        wrs = [write(src, smr, dst, dmr, i) for i in range(32)]
        wrs.append(write(src, smr, dst, dmr, 32, **last))
        seen = {"run ends": 0, "landings": 0}
        hold_until, call_later = sim.hold_until, sim.call_later

        def hold(at, tag=None):  # the send engine's wait to a run's end
            seen["run ends"] += isinstance(tag, tuple) and tag[0] == "run"
            return hold_until(at, tag)

        def call(delay, fn, arg=None, tag=None):  # a landing or a CQE
            seen["landings"] += tag != "cqe"
            call_later(delay, fn, arg, tag)

        sim.hold_until, sim.call_later = hold, call

        def sender():
            yield from qp0.post_send_list(wrs)
            cqe = yield qp0.send_cq.wait()
            assert cqe.wr_id == 32
            # the origin knows; the first moment it could tell the target
            yield sim.timeout(n0.cm.wire_latency)
            seen["after_send_cqe"] = blocks_landed(n0, src, n1, dst, 33)

        def receiver():
            from repro.ib.verbs import RecvWR

            qp1.post_recv_nocost(RecvWR())
            cqe = yield qp1.recv_cq.wait()
            assert cqe.imm == 99
            seen["at_recv_cqe"] = blocks_landed(n0, src, n1, dst, 33)

        if last.get("signaled"):
            sim.process(sender())
        else:
            sim.process(receiver())
            sim.process(qp0.post_send_list(wrs))
        sim.run()
        assert not qp1.pending_landings
        assert n0.hca.bytes_injected == n1.hca.bytes_delivered == 33 * BLOCK
        return sim, seen

    def test_list_of_silent_writes_then_signaled(self):
        sim, seen = self._list_post({"signaled": True})
        assert seen["after_send_cqe"] == [True] * 33
        assert sim.events_processed <= self.PARENT_EVENTS["signaled"] - 31

    def test_list_of_silent_writes_then_imm(self):
        sim, seen = self._list_post({"opcode": Opcode.RDMA_WRITE_IMM, "imm": 99})
        assert seen["at_recv_cqe"] == [True] * 33
        assert sim.events_processed <= self.PARENT_EVENTS["imm"] - 31

    def test_enabled_fault_plan_folds_nothing(self):
        _, plain = self._list_post({"signaled": True})
        _, seen = self._list_post({"signaled": True}, enabled_plan=True)
        assert seen["after_send_cqe"] == [True] * 33
        # every one of the 32 silent writes keeps its own landing, and its
        # own injection end: a faulted node plans runs of one
        assert (seen["run ends"], seen["landings"]) == (
            plain["run ends"] + 32, plain["landings"] + 32
        )

    def _first_of_two(self, first_kw, second, post_recv=False):
        """Node 0 posts one 64 KB write to node 1, then ``second(...)``
        while the engine is still injecting the first.  Returns whether the
        first write's bytes are in node 1's memory just before, and at,
        ``injection end + wire_latency``."""
        sim, (n0, n1, n2) = make_world(3)
        size = 16 * BLOCK
        src, smr = region(n0, 32, fill=True)
        dst1, dmr1 = region(n1, 32)
        dst2, dmr2 = region(n2, 32)
        cm = n0.cm
        first = write(src, smr, dst1, dmr1, 0, size=size, **first_kw)
        nxt = second(n0, (src, smr), (dst1, dmr1), (dst2, dmr2))
        t_land = (cm.post_time(1) + cm.descriptor_time(size, 1)) + cm.wire_latency
        seen = []
        if post_recv:
            from repro.ib.verbs import RecvWR

            n1.hca.qps[0].post_recv_nocost(RecvWR())

        def landed():
            return bool(
                (n1.memory.view(dst1, size) == n0.memory.view(src, size)).all()
            )

        def sender():
            yield from n0.hca.qps[1].post_send(first)
            if nxt is not None:
                qp, wr = nxt
                yield from qp.post_send(wr)
                assert sim.now < t_land - cm.wire_latency  # queued in time

        def probe():
            yield sim.timeout(np.nextafter(t_land, 0.0))
            seen.append(landed())
            yield sim.timeout(t_land - sim.now)
            assert sim.now == t_land
            yield sim.timeout(0.0)  # after everything already due now
            seen.append(landed())

        sim.process(sender())
        sim.process(probe())
        sim.run()
        assert landed() and not n1.hca.qps[0].pending_landings
        return seen

    def test_successor_on_another_qp_does_not_carry_it(self):
        seen = self._first_of_two(
            {}, lambda n0, s, d1, d2: (n0.hca.qps[2], write(*s, *d2, 16))
        )
        assert seen == [False, True]

    def test_read_successor_does_not_carry_it(self):
        seen = self._first_of_two(
            {},
            lambda n0, s, d1, d2: (
                n0.hca.qps[1], write(*s, *d1, 16, opcode=Opcode.RDMA_READ)
            ),
        )
        assert seen == [False, True]

    def test_send_successor_does_not_carry_it(self):
        # a SEND arrives channel_recv_overhead later than a write would
        seen = self._first_of_two(
            {},
            lambda n0, s, d1, d2: (
                n0.hca.qps[1], SendWR(Opcode.SEND, payload="fin", signaled=False)
            ),
            post_recv=True,
        )
        assert seen == [False, True]

    def test_last_descriptor_lands_by_its_own_event(self):
        assert self._first_of_two({}, lambda *a: None) == [False, True]

    def test_signaled_write_never_folds(self):
        seen = self._first_of_two(
            {"signaled": True},
            lambda n0, s, d1, d2: (n0.hca.qps[1], write(*s, *d1, 16)),
        )
        assert seen == [False, True]

    def test_same_qp_successor_carries_it(self):
        """The contrast: the same probe sees nothing yet when the write
        folds — its bytes arrive with the successor."""
        seen = self._first_of_two(
            {}, lambda n0, s, d1, d2: (n0.hca.qps[1], write(*s, *d1, 16))
        )
        assert seen == [False, False]

    def test_folded_write_outside_the_window_still_faults(self):
        from repro.ib import ProtectionError

        sim, (n0, n1) = make_world()
        src, smr = region(n0, 4, fill=True)
        dst, dmr = region(n1, 2)
        stray = write(src, smr, dst, dmr, 3)  # two blocks past the window
        wrs = [write(src, smr, dst, dmr, 0), stray,
               write(src, smr, dst, dmr, 1, signaled=True)]
        sim.process(n0.hca.qps[1].post_send_list(wrs))
        with pytest.raises(ProtectionError) as err:
            sim.run()
        assert f"{stray.remote_addr:#x}" in str(err.value)
        assert f"rkey {dmr.rkey}" in str(err.value)

    def test_single_posts_behind_a_busy_engine_deliver_identical_bytes(self):
        sim, (n0, n1) = make_world()
        src, smr = region(n0, 33, fill=True)
        dst, dmr = region(n1, 33)
        qp0 = n0.hca.qps[1]

        def sender():
            for i in range(32):  # each post is quicker than an injection
                yield from qp0.post_send(write(src, smr, dst, dmr, i))
            yield from qp0.post_send(write(src, smr, dst, dmr, 32, signaled=True))
            yield qp0.send_cq.wait()

        sim.process(sender())
        sim.run()
        assert blocks_landed(n0, src, n1, dst, 33) == [True] * 33
        assert n0.hca.bytes_injected == n1.hca.bytes_delivered == 33 * BLOCK
        assert not n1.hca.qps[0].pending_landings
