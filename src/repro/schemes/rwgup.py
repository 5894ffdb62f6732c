"""RDMA Write Gather with Unpack (RWG-UP, Sections 5.1, 7.3).

Sender-side packing is eliminated: the sender registers its user buffer
with Optimistic Group Registration and gathers the datatype's contiguous
blocks directly from user memory into the receiver's contiguous unpack
segment buffers — up to 64 blocks per descriptor (the Mellanox SGE
limit), so the per-operation startup is amortized across many blocks.
Immediate data on the last descriptor of each segment drives the
receiver's segment unpack (overlapping the remaining wire time).

``segment_unpack=False`` reproduces the Figure 12 ablation: the receiver
waits for the whole message before unpacking.
"""

from __future__ import annotations

from repro.ib.verbs import Opcode, SendWR
from repro.mpi.messages import RndvReply, SegArrival
from repro.schemes.base import (
    DatatypeScheme,
    RegisteredUserBuffer,
    plan_segments,
    send_rndv_start,
    sge_chunks,
    staged_receiver,
)

__all__ = ["RWGUPScheme"]


class RWGUPScheme(DatatypeScheme):
    name = "rwg-up"
    OPTIONS = ("segment_unpack", "registration_mode")

    def __init__(self, ctx, segment_unpack: bool = True,
                 registration_mode: str = "ogr"):
        super().__init__(ctx)
        self.segment_unpack = segment_unpack
        self.registration_mode = registration_mode

    def sender(self, ctx, req):
        cur = req.cursor
        nbytes = cur.total
        segsize = ctx.cm.segment_size_for(nbytes)
        segs = plan_segments(nbytes, segsize)
        ctx.metrics.counter("scheme.segments", ctx.rank).inc(len(segs))
        start = yield from send_rndv_start(
            ctx, req, self.name, meta={"segsize": segsize}
        )
        # register the user buffer while the handshake is in flight
        reg = yield from RegisteredUserBuffer.acquire(
            ctx, req.addr, cur.flat, mode=self.registration_mode
        )
        reply = yield from ctx.rndv_await_reply(req, start)
        assert isinstance(reply, RndvReply)
        completions = []
        for i, (lo, hi) in enumerate(segs):
            dst_addr, dst_rkey, cap = reply.segments[i]
            assert hi - lo <= cap
            # datatype processing builds the gather list, <= MAX_SGE
            # entries per descriptor; only the last descriptor of the
            # segment carries the arrival notification
            chunks = yield from sge_chunks(ctx, req.addr, cur, lo, hi, reg)
            dst_off = 0
            for c, sges in enumerate(chunks):
                wr_id = ctx.new_wr_id()
                if c == len(chunks) - 1:
                    done = ctx.send_completion(wr_id)
                    completions.append(done)
                    wr = SendWR(
                        Opcode.RDMA_WRITE_IMM,
                        sges=sges,
                        remote_addr=dst_addr + dst_off,
                        rkey=dst_rkey,
                        imm=i,
                        wr_id=wr_id,
                        payload=SegArrival(
                            req.msg_id, i, lo, hi, last=(i == len(segs) - 1)
                        ),
                    )
                else:
                    wr = SendWR(
                        Opcode.RDMA_WRITE,
                        sges=sges,
                        remote_addr=dst_addr + dst_off,
                        rkey=dst_rkey,
                        wr_id=wr_id,
                        signaled=False,
                    )
                yield from ctx.ctrl_qps[req.peer].post_send(wr)
                dst_off += sges.nbytes
        yield ctx.sim.all_of(completions)
        yield from reg.release(ctx)

    def receiver(self, ctx, rreq, start):
        yield from staged_receiver(
            ctx, rreq, start, segment_unpack=self.segment_unpack
        )
