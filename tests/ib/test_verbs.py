"""Integration tests for the verbs layer: channel and memory semantics.

Each test builds a two-node fabric, runs small generator programs as
simulated processes, and checks both data integrity (bytes really moved)
and protocol semantics (descriptor matching, completions, protection).
"""

import numpy as np
import pytest

from repro.ib import (
    MAX_SGE,
    CostModel,
    Fabric,
    Opcode,
    ProtectionError,
    RecvWR,
    SGE,
    SendWR,
)
from repro.simulator import SimulationError, Simulator


@pytest.fixture
def net():
    """(sim, fabric, [node0, node1]) with one connected QP pair."""
    sim = Simulator()
    cm = CostModel.mellanox_2003()
    fabric = Fabric(sim, cm)
    nodes = fabric.connect_all(memory_capacity=4 << 20, n=2)
    return sim, fabric, nodes


def fill(node, size, pattern):
    addr = node.memory.alloc(size)
    node.memory.view(addr, size)[:] = np.arange(size, dtype=np.uint8) * pattern % 251
    return addr


class TestChannelSemantics:
    def test_send_recv_moves_bytes(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 1024, 3)
        dst = n1.memory.alloc(1024)
        mr_src = n0.memory.register(src, 1024)
        mr_dst = n1.memory.register(dst, 1024)
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]

        def receiver():
            yield from qp1.post_recv(RecvWR(sges=[SGE(dst, 1024, mr_dst.lkey)], wr_id=7))
            cqe = yield qp1.recv_cq.wait()
            return cqe

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, sges=[SGE(src, 1024, mr_src.lkey)], wr_id=1)
            )
            cqe = yield qp0.send_cq.wait()
            return cqe

        rp = sim.process(receiver())
        sp = sim.process(sender())
        sim.run()
        assert np.array_equal(n0.memory.view(src, 1024), n1.memory.view(dst, 1024))
        assert rp.value.wr_id == 7 and rp.value.is_recv
        assert rp.value.byte_len == 1024
        assert sp.value.wr_id == 1

    def test_send_without_recv_descriptor_is_rnr_error(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 64, 1)
        mr = n0.memory.register(src, 64)
        qp0 = n0.hca.qps[1]

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, sges=[SGE(src, 64, mr.lkey)])
            )

        sim.process(sender())
        with pytest.raises(SimulationError, match="receiver-not-ready"):
            sim.run()

    def test_sends_match_recvs_in_fifo_order(self, net):
        sim, fabric, (n0, n1) = net
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]
        srcs = [fill(n0, 16, k + 1) for k in range(3)]
        mrs = [n0.memory.register(s, 16) for s in srcs]
        dsts = [n1.memory.alloc(16) for _ in range(3)]
        mrd = [n1.memory.register(d, 16) for d in dsts]
        got = []

        def receiver():
            for k in range(3):
                yield from qp1.post_recv(
                    RecvWR(sges=[SGE(dsts[k], 16, mrd[k].lkey)], wr_id=k)
                )
            for _ in range(3):
                cqe = yield qp1.recv_cq.wait()
                got.append(cqe.wr_id)

        def sender():
            for k in range(3):
                yield from qp0.post_send(
                    SendWR(Opcode.SEND, sges=[SGE(srcs[k], 16, mrs[k].lkey)], wr_id=k)
                )

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got == [0, 1, 2]
        for k in range(3):
            assert np.array_equal(
                n0.memory.view(srcs[k], 16), n1.memory.view(dsts[k], 16)
            )

    def test_send_payload_object_delivered(self, net):
        sim, fabric, (n0, n1) = net
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]
        dst = n1.memory.alloc(64)
        mrd = n1.memory.register(dst, 64)

        def receiver():
            yield from qp1.post_recv(RecvWR(sges=[SGE(dst, 64, mrd.lkey)]))
            cqe = yield qp1.recv_cq.wait()
            return cqe.payload

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, payload={"kind": "rndv_start", "size": 9})
            )

        rp = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert rp.value == {"kind": "rndv_start", "size": 9}

    def test_oversized_send_rejected(self, net):
        sim, fabric, (n0, n1) = net
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]
        src = fill(n0, 128, 1)
        mrs = n0.memory.register(src, 128)
        dst = n1.memory.alloc(64)
        mrd = n1.memory.register(dst, 64)

        def receiver():
            yield from qp1.post_recv(RecvWR(sges=[SGE(dst, 64, mrd.lkey)]))

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, sges=[SGE(src, 128, mrs.lkey)])
            )

        sim.process(receiver())
        sim.process(sender())
        with pytest.raises(SimulationError, match="overruns"):
            sim.run()


class TestRDMAWrite:
    def test_write_moves_bytes_one_sided(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 4096, 5)
        dst = n1.memory.alloc(4096)
        mrs = n0.memory.register(src, 4096)
        mrd = n1.memory.register(dst, 4096)
        qp0 = n0.hca.qps[1]

        def sender():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(src, 4096, mrs.lkey)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()

        sim.process(sender())
        sim.run()
        assert np.array_equal(n0.memory.view(src, 4096), n1.memory.view(dst, 4096))

    def test_write_gather_concatenates(self, net):
        """RDMA write gather: many local blocks -> one remote range."""
        sim, fabric, (n0, n1) = net
        blocks = [fill(n0, 100, k + 1) for k in range(8)]
        mrs = [n0.memory.register(b, 100) for b in blocks]
        dst = n1.memory.alloc(800)
        mrd = n1.memory.register(dst, 800)
        qp0 = n0.hca.qps[1]

        def sender():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(b, 100, m.lkey) for b, m in zip(blocks, mrs)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()

        sim.process(sender())
        sim.run()
        expect = np.concatenate([n0.memory.view(b, 100) for b in blocks])
        assert np.array_equal(expect, n1.memory.view(dst, 800))

    def test_write_imm_consumes_recv_and_notifies(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 256, 2)
        dst = n1.memory.alloc(256)
        mrs = n0.memory.register(src, 256)
        mrd = n1.memory.register(dst, 256)
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]

        def receiver():
            qp1.post_recv_nocost(RecvWR(wr_id=55))
            cqe = yield qp1.recv_cq.wait()
            return cqe

        def sender():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE_IMM,
                    sges=[SGE(src, 256, mrs.lkey)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                    imm=0xBEEF,
                )
            )

        rp = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert rp.value.imm == 0xBEEF
        assert rp.value.wr_id == 55
        assert rp.value.opcode is Opcode.RDMA_WRITE_IMM
        assert np.array_equal(n0.memory.view(src, 256), n1.memory.view(dst, 256))

    def test_write_imm_requires_imm(self, net):
        with pytest.raises(SimulationError):
            SendWR(Opcode.RDMA_WRITE_IMM).validate()

    def test_plain_write_generates_no_remote_cqe(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 64, 1)
        dst = n1.memory.alloc(64)
        mrs = n0.memory.register(src, 64)
        mrd = n1.memory.register(dst, 64)
        qp0, qp1 = n0.hca.qps[1], n1.hca.qps[0]

        def sender():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(src, 64, mrs.lkey)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()

        sim.process(sender())
        sim.run()
        assert len(qp1.recv_cq) == 0

    def test_write_to_unregistered_remote_faults(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 64, 1)
        mrs = n0.memory.register(src, 64)
        dst = n1.memory.alloc(64)  # NOT registered
        qp0 = n0.hca.qps[1]

        def sender():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(src, 64, mrs.lkey)],
                    remote_addr=dst,
                    rkey=424242,
                )
            )

        sim.process(sender())
        with pytest.raises(ProtectionError):
            sim.run()

    def test_local_sge_must_be_registered(self, net):
        sim, fabric, (n0, n1) = net
        src = fill(n0, 64, 1)  # NOT registered
        qp0 = n0.hca.qps[1]

        def sender():
            yield from qp0.post_send(
                SendWR(Opcode.SEND, sges=[SGE(src, 64, 999)])
            )

        sim.process(sender())
        with pytest.raises(ProtectionError):
            sim.run()

    def test_sge_limit_enforced(self, net):
        sim, fabric, (n0, n1) = net
        wr = SendWR(
            Opcode.RDMA_WRITE,
            sges=[SGE(0, 1, 1)] * (MAX_SGE + 1),
        )
        with pytest.raises(SimulationError, match="SGE"):
            wr.validate()


class TestRDMARead:
    def test_read_scatter(self, net):
        """RDMA read scatter: one remote range -> many local blocks."""
        sim, fabric, (n0, n1) = net
        remote = fill(n1, 600, 7)
        mr_remote = n1.memory.register(remote, 600)
        locals_ = [n0.memory.alloc(200) for _ in range(3)]
        mrs = [n0.memory.register(b, 200) for b in locals_]
        qp0 = n0.hca.qps[1]

        def reader():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_READ,
                    sges=[SGE(b, 200, m.lkey) for b, m in zip(locals_, mrs)],
                    remote_addr=remote,
                    rkey=mr_remote.rkey,
                )
            )
            cqe = yield qp0.send_cq.wait()
            return cqe

        p = sim.process(reader())
        sim.run()
        assert p.value.opcode is Opcode.RDMA_READ
        got = np.concatenate([n0.memory.view(b, 200) for b in locals_])
        assert np.array_equal(got, n1.memory.view(remote, 600))

    def test_read_slower_than_write(self, net):
        """RDMA read latency exceeds RDMA write latency (Section 5.2)."""
        sim, fabric, (n0, n1) = net
        src = fill(n0, 4096, 1)
        dst = n1.memory.alloc(4096)
        mrs = n0.memory.register(src, 4096)
        mrd = n1.memory.register(dst, 4096)
        qp0 = n0.hca.qps[1]

        def writer():
            t0 = sim.now
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(src, 4096, mrs.lkey)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()
            write_t = sim.now - t0
            t0 = sim.now
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_READ,
                    sges=[SGE(src, 4096, mrs.lkey)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()
            read_t = sim.now - t0
            return write_t, read_t

        p = sim.process(writer())
        sim.run()
        write_t, read_t = p.value
        assert read_t > write_t

    def test_read_from_unregistered_faults(self, net):
        sim, fabric, (n0, n1) = net
        remote = n1.memory.alloc(64)  # not registered
        local = n0.memory.alloc(64)
        mrl = n0.memory.register(local, 64)
        qp0 = n0.hca.qps[1]

        def reader():
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_READ,
                    sges=[SGE(local, 64, mrl.lkey)],
                    remote_addr=remote,
                    rkey=77,
                )
            )

        sim.process(reader())
        with pytest.raises(ProtectionError):
            sim.run()


class TestTiming:
    def test_gather_write_cheaper_than_many_writes(self, net):
        """One 16-SGE gather descriptor beats 16 single-block descriptors:
        the startup amortization that motivates RWG-UP."""
        sim, fabric, (n0, n1) = net
        nblk, blk = 16, 512
        blocks = [fill(n0, blk, k + 1) for k in range(nblk)]
        mrs = [n0.memory.register(b, blk) for b in blocks]
        dst = n1.memory.alloc(nblk * blk)
        mrd = n1.memory.register(dst, nblk * blk)
        qp0 = n0.hca.qps[1]

        def one_gather():
            t0 = sim.now
            yield from qp0.post_send(
                SendWR(
                    Opcode.RDMA_WRITE,
                    sges=[SGE(b, blk, m.lkey) for b, m in zip(blocks, mrs)],
                    remote_addr=dst,
                    rkey=mrd.rkey,
                )
            )
            yield qp0.send_cq.wait()
            return sim.now - t0

        p = sim.process(one_gather())
        sim.run()
        gather_t = p.value

        # fresh network for the many-writes variant
        sim2 = Simulator()
        fabric2 = Fabric(sim2, CostModel.mellanox_2003())
        m0, m1 = fabric2.connect_all(memory_capacity=4 << 20, n=2)
        blocks2 = []
        for k in range(nblk):
            a = m0.memory.alloc(blk)
            m0.memory.view(a, blk)[:] = k
            blocks2.append(a)
        mrs2 = [m0.memory.register(b, blk) for b in blocks2]
        dst2 = m1.memory.alloc(nblk * blk)
        mrd2 = m1.memory.register(dst2, nblk * blk)
        qp = m0.hca.qps[1]

        def many_writes():
            t0 = sim2.now
            for k in range(nblk):
                yield from qp.post_send(
                    SendWR(
                        Opcode.RDMA_WRITE,
                        sges=[SGE(blocks2[k], blk, mrs2[k].lkey)],
                        remote_addr=dst2 + k * blk,
                        rkey=mrd2.rkey,
                    )
                )
            for _ in range(nblk):
                yield qp.send_cq.wait()
            return sim2.now - t0

        p2 = sim2.process(many_writes())
        sim2.run()
        assert gather_t < p2.value

    def test_wire_time_scales_with_bytes(self, net):
        sim, fabric, (n0, n1) = net
        qp0 = n0.hca.qps[1]
        cm = fabric.cm
        times = {}
        for size in (1024, 1024 * 1024):
            src = n0.memory.alloc(size)
            dst = n1.memory.alloc(size)
            mrs = n0.memory.register(src, size)
            mrd = n1.memory.register(dst, size)

            def xfer(size=size, src=src, dst=dst, mrs=mrs, mrd=mrd):
                t0 = sim.now
                yield from qp0.post_send(
                    SendWR(
                        Opcode.RDMA_WRITE,
                        sges=[SGE(src, size, mrs.lkey)],
                        remote_addr=dst,
                        rkey=mrd.rkey,
                    )
                )
                yield qp0.send_cq.wait()
                return sim.now - t0

            p = sim.process(xfer())
            sim.run()
            times[size] = p.value
        delta = times[1024 * 1024] - times[1024]
        expect = (1024 * 1024 - 1024) / cm.wire_bandwidth
        assert delta == pytest.approx(expect, rel=0.05)


class TestFabric:
    def test_connect_all_mesh(self):
        sim = Simulator()
        fabric = Fabric(sim, CostModel.mellanox_2003())
        nodes = fabric.connect_all(memory_capacity=1 << 20, n=4)
        assert len(nodes) == 4
        for i, node in enumerate(nodes):
            assert set(node.hca.qps) == {j for j in range(4) if j != i}
            for j, qp in node.hca.qps.items():
                assert qp.peer is nodes[j].hca.qps[i]

    def test_double_connect_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, CostModel.mellanox_2003())
        n0 = fabric.add_node(1 << 20)
        n1 = fabric.add_node(1 << 20)
        a, b = n0.hca.create_qp(), n1.hca.create_qp()
        fabric.connect(a, b)
        with pytest.raises(SimulationError):
            fabric.connect(a, b)

    def test_self_connect_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, CostModel.mellanox_2003())
        n0 = fabric.add_node(1 << 20)
        qp = n0.hca.create_qp()
        with pytest.raises(SimulationError):
            fabric.connect(qp, qp)


class TestCountedReceiveQueue:
    """The receive queue is run-length encoded: a pool of identical
    descriptors is one entry.  Clock-free: descriptors are consumed
    directly, the way the HCA's inbound path does."""

    def test_counted_post_reads_like_repeated_posts(self, net):
        _, _, (_, n1) = net
        qp = n1.hca.qps[0]
        before = n1.metrics.counter("ib.recvs_posted", n1.node_id).value
        qp.post_recv_nocost(RecvWR(wr_id="pool"), 4096)
        assert len(qp._recv_queue) == 4096
        assert len(qp._recv_queue._runs) == 1
        assert qp.posted_recvs == 4096
        after = n1.metrics.counter("ib.recvs_posted", n1.node_id).value
        assert after - before == 4096

    def test_drained_run_is_receiver_not_ready(self, net):
        _, _, (_, n1) = net
        qp = n1.hca.qps[0]
        wr = RecvWR(wr_id="pool")
        qp.post_recv_nocost(wr, 3)
        assert [qp._consume_recv() for _ in range(3)] == [wr] * 3
        assert len(qp._recv_queue) == 0
        with pytest.raises(SimulationError, match="receiver-not-ready"):
            qp._consume_recv()

    def test_repost_refills_the_same_run(self, net):
        _, _, (_, n1) = net
        qp = n1.hca.qps[0]
        wr = RecvWR(wr_id="pool")
        qp.post_recv_nocost(wr, 4096)
        for _ in range(10):
            assert qp._consume_recv() is wr
        assert len(qp._recv_queue) == 4086
        for _ in range(10):
            qp.post_recv_nocost(wr)
        assert len(qp._recv_queue) == 4096
        assert len(qp._recv_queue._runs) == 1
        assert qp.posted_recvs == 4106

    def test_fifo_across_a_run_boundary(self, net):
        _, _, (_, n1) = net
        qp = n1.hca.qps[0]
        base = n1.memory.alloc(4 * 64)
        mr = n1.memory.register(base, 4 * 64)
        slots = [
            RecvWR(sges=[SGE(base + i * 64, 64, mr.lkey)], wr_id=("slot", i))
            for i in range(4)
        ]
        pool = RecvWR(wr_id="pool")
        for wr in slots:
            qp.post_recv_nocost(wr)
        qp.post_recv_nocost(pool, 2)
        qp.post_recv_nocost(slots[0])  # a distinct descriptor ends the run
        qp.post_recv_nocost(pool)
        order = [qp._consume_recv().wr_id for _ in range(len(qp._recv_queue))]
        assert order == [
            ("slot", 0), ("slot", 1), ("slot", 2), ("slot", 3),
            "pool", "pool", ("slot", 0), "pool",
        ]

    def test_counted_post_checks_sges_and_count(self, net):
        _, _, (_, n1) = net
        qp = n1.hca.qps[0]
        with pytest.raises(ProtectionError):
            qp.post_recv_nocost(RecvWR(sges=[SGE(0, 64, 12345)]), 8)
        with pytest.raises(ValueError):
            qp.post_recv_nocost(RecvWR(), 0)
        assert len(qp._recv_queue) == 0 and qp.posted_recvs == 0

    def test_recv_wr_is_immutable(self):
        sges = [SGE(0, 64, 1)]
        wr = RecvWR(sges=sges, wr_id=7)
        with pytest.raises(AttributeError):  # FrozenInstanceError
            wr.wr_id = 8
        with pytest.raises(AttributeError):
            wr.sges = ()
        sges.append(SGE(64, 64, 1))  # the caller's list is not the WR's
        assert wr.sges == (SGE(0, 64, 1),)
        assert wr.byte_len == 64
