"""World construction ("MPI_Init") is O(rank pairs), not O(pairs x depth).

Every check here is a count, never a clock: the pre-posted control
receive pool is one counted descriptor per directed rank pair, and the
queue depths and posted-receive statistics read exactly as they did when
each of the 4096 descriptors was its own object.
"""

import pytest

from repro import Cluster
from repro.datatypes import BYTE
from repro.ib import SGE, QueuePair, RecvWR
from repro.mpi.context import CTRL_RECVS_PER_PEER, EAGER_SLOTS_PER_PEER
from repro.simulator import SimulationError


@pytest.mark.parametrize("nranks", [2, 5, 8])
def test_build_creates_a_bounded_number_of_descriptors(nranks, monkeypatch):
    created = []
    real_init = RecvWR.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RecvWR, "__init__", counting_init)
    Cluster(nranks)
    # per directed pair: the control pool's one descriptor; the eager
    # slots' are made as they are consumed
    assert len(created) <= 2 * nranks * (nranks - 1)


def slot_descriptors(ctx, peer) -> list:
    """The eager slots of ``peer``'s data QP as one descriptor object each,
    in posting order: what the pool posted before it was one run."""
    mr, size = ctx._recv_slot_mr[peer], ctx._slot_size
    return [
        RecvWR(sges=(SGE(addr, size, mr.lkey),), wr_id=("slot", peer, addr))
        for addr in range(mr.addr, mr.addr + EAGER_SLOTS_PER_PEER * size, size)
    ]


class TestEagerSlotRun:
    def test_a_fresh_pool_yields_the_slots_in_order_then_runs_dry(self):
        ctx = Cluster(3).contexts[1]
        for peer, qp in ctx.data_qps.items():
            assert len(qp._recv_queue._runs) == 1
            got = [qp._consume_recv() for _ in range(EAGER_SLOTS_PER_PEER)]
            assert got == slot_descriptors(ctx, peer)
            assert len(qp._recv_queue) == 0 and qp.posted_recvs == 64
            with pytest.raises(SimulationError, match="receiver-not-ready"):
                qp._consume_recv()  # the 65th unreplenished eager arrival

    def test_reposts_queue_behind_the_rest_of_the_run(self):
        ctx = Cluster(2).contexts[0]
        qp, want = ctx.data_qps[1], slot_descriptors(ctx, 1)
        taken = [qp._consume_recv() for _ in range(10)]
        assert taken == want[:10]
        # slots come back in whatever order their messages were delivered
        reposted = taken[3:] + taken[:3]
        for wr in reposted:
            addr = wr.wr_id[2]
            assert list(ctx._recycle_slot(1, addr)) == []  # below a credit batch
        assert len(qp._recv_queue) == qp.posted_recvs - 10 == 64
        got = [qp._consume_recv() for _ in range(EAGER_SLOTS_PER_PEER)]
        assert got == want[10:] + reposted
        with pytest.raises(SimulationError, match="receiver-not-ready"):
            qp._consume_recv()

    def test_a_stream_of_eager_messages_cycles_the_slots_in_order(self, monkeypatch):
        consumed = []
        real = QueuePair._consume_recv

        def noting(self):
            wr = real(self)
            consumed.append((self, wr))
            return wr

        monkeypatch.setattr(QueuePair, "_consume_recv", noting)
        cluster = Cluster(2)
        n = 3 * EAGER_SLOTS_PER_PEER

        def program(mpi):
            buf = mpi.alloc(64)
            for _ in range(n):
                if mpi.rank == 0:
                    yield from mpi.send(buf, BYTE, 64, dest=1, tag=0)
                else:
                    yield from mpi.recv(buf, BYTE, 64, source=0, tag=0)

        cluster.run(program)
        ctx = cluster.contexts[1]
        qp = ctx.data_qps[0]
        slots = [wr for q, wr in consumed if q is qp]
        assert len(slots) == n
        # the receiver reposts each slot as it drains it, so the ring of
        # 64 is taken round and round in address order
        assert slots == slot_descriptors(ctx, 0) * 3
        assert len(qp._recv_queue) == EAGER_SLOTS_PER_PEER
        assert qp.posted_recvs == n + EAGER_SLOTS_PER_PEER


@pytest.mark.parametrize("nranks,recvs_per_node", [(2, 4160), (3, 8320)])
def test_depths_and_statistics_read_as_before(nranks, recvs_per_node):
    assert (CTRL_RECVS_PER_PEER, EAGER_SLOTS_PER_PEER) == (4096, 64)
    cluster = Cluster(nranks)
    for ctx in cluster.contexts:
        assert len(ctx.ctrl_qps) == len(ctx.data_qps) == nranks - 1
        for qp in ctx.ctrl_qps.values():
            assert len(qp._recv_queue) == qp.posted_recvs == 4096
        for qp in ctx.data_qps.values():
            assert len(qp._recv_queue) == qp.posted_recvs == 64
        posted = cluster.metrics.counter("ib.recvs_posted", ctx.rank).value
        assert posted == recvs_per_node
        # the pre-filled credit and send-slot pools count as if put one by one
        for credits in ctx._credits.values():
            assert (len(credits), credits.total_put) == (64, 64)
        slots = ctx._send_slot_tokens
        assert (len(slots), slots.total_put) == (128, 128)


def test_ctrl_pool_exhausts_at_its_depth_and_replenishes_in_place():
    cluster = Cluster(2)
    ctx = cluster.contexts[0]
    qp = ctx.ctrl_qps[1]
    wr = qp._consume_recv()
    assert wr.wr_id == ("ctrl", 1) and wr.sges == ()
    for _ in range(CTRL_RECVS_PER_PEER - 1):
        assert qp._consume_recv() is wr
    with pytest.raises(SimulationError, match="receiver-not-ready"):
        qp._consume_recv()  # the 4097th unreplenished control message

    class _Cqe:
        wr_id = wr.wr_id

    for _ in range(CTRL_RECVS_PER_PEER):
        ctx._replenish_ctrl(_Cqe)
    assert len(qp._recv_queue) == CTRL_RECVS_PER_PEER
    assert len(qp._recv_queue._runs) == 1  # the run refills; no tail grows
    assert qp.posted_recvs == 2 * CTRL_RECVS_PER_PEER


def test_profiled_build_samples_the_final_depth_once():
    cluster = Cluster(2, trace=True)
    for ctx in cluster.contexts:
        for qp in ctx.ctrl_qps.values():
            name = f"qp{qp.qp_num}.rq"
            assert cluster.tracer.series[(f"{name}.depth", ctx.rank)] == [
                (0.0, 4096.0)
            ]
            gauge = cluster.metrics.gauge(f"profile.depth.{name}", ctx.rank)
            assert (gauge.value, gauge.max_value) == (4096.0, 4096.0)


def test_sixty_four_ranks_build_and_synchronise():
    # the first tier-1 footprint of the deferred scale work: 4032 directed
    # pairs — 16.5 million control descriptors when each was an object
    cluster = Cluster(64)

    def program(mpi):
        yield from mpi.barrier()
        return mpi.now

    done = cluster.run(program).values
    assert len(done) == 64 and all(t > 0 for t in done)
