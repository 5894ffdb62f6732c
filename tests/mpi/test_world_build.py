"""World construction ("MPI_Init") is O(rank pairs), not O(pairs x depth).

Every check here is a count, never a clock: the pre-posted control
receive pool is one counted descriptor per directed rank pair, and the
queue depths and posted-receive statistics read exactly as they did when
each of the 4096 descriptors was its own object.
"""

import pytest

from repro import Cluster
from repro.ib import RecvWR
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
    # per directed pair: one descriptor per eager slot, one for the pool
    assert len(created) <= (EAGER_SLOTS_PER_PEER + 1) * nranks * (nranks - 1)


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
