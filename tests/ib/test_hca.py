"""Unit tests for HCA/Node timing mechanics: CPU accounting, memory-bus
contention, DMA bracketing, timed memory management."""

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
            n0.dma_window(0.0, 1e9)  # a DMA stream runs throughout
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
