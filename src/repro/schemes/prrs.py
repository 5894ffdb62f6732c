"""Pack with RDMA Read Scatter (P-RRS, Section 5.2).

The mirror image of RWG-UP: the *sender* packs segments into its
pre-registered pack buffers and advertises each with a control message;
the *receiver* RDMA-reads each packed segment, scattering it directly
into the contiguous blocks of its user buffer (read-scatter), then acks
so the sender can recycle the pack buffer.

The paper designs but does not implement this scheme, predicting it is
"a little more costly to pipeline" (a control message per segment
triggers each read) and slower because RDMA read trails RDMA write — our
cost model reflects both, and the ablation benchmark quantifies the gap
against RWG-UP.  It remains attractive for asymmetric communication
where only the receiver side is noncontiguous.
"""

from __future__ import annotations

from repro.datatypes.pack import pack_bytes
from repro.ib.verbs import Opcode, SendWR
from repro.mpi.messages import RndvReply, SegAck, SegReady
from repro.schemes.base import (
    DatatypeScheme,
    RegisteredUserBuffer,
    plan_segments,
    send_rndv_start,
    sge_chunks,
)

__all__ = ["PRRSScheme"]


class PRRSScheme(DatatypeScheme):
    name = "p-rrs"
    OPTIONS = ()

    def sender(self, ctx, req):
        node = ctx.node
        cur = req.cursor
        nbytes = cur.total
        segsize = ctx.cm.segment_size_for(nbytes)
        segs = plan_segments(nbytes, segsize)
        start = yield from send_rndv_start(
            ctx, req, self.name, meta={"segsize": segsize, "nseg": len(segs)}
        )
        # P-RRS has no reply in the fault-free protocol (SegReady control
        # messages drive the receiver directly), but a lost start would
        # leave both sides waiting forever — so under fault injection the
        # receiver acks the start and the sender gates on that ack with
        # the usual timeout/retransmit machinery.
        if ctx.faults_active:
            ack = yield from ctx.rndv_await_reply(req, start)
            assert isinstance(ack, RndvReply)
        inbox = ctx.msg_inbox(req.msg_id)
        blocks = yield from ctx.pack_pool.acquire_block([hi - lo for lo, hi in segs])
        bufs = {}
        for i, (lo, hi) in enumerate(segs):
            buf = blocks[i]
            bufs[i] = buf
            nblocks = pack_bytes(node.memory, req.addr, cur, lo, hi, buf.addr)
            yield from ctx.charge_pack(hi - lo, nblocks)
            yield from ctx.ctrl_send(
                req.peer,
                SegReady(
                    req.msg_id, i, lo, hi, buf.addr, buf.rkey,
                    last=(i == len(segs) - 1),
                ),
            )
        # wait for every segment's ack, recycling buffers as they come
        acked = 0
        while acked < len(segs):
            note = yield from inbox.take()
            assert isinstance(note, SegAck)
            yield from ctx.pack_pool.release(bufs.pop(note.index))
            acked += 1

    def receiver(self, ctx, rreq, start):
        cur = rreq.cursor
        if ctx.faults_active:
            # ack the start so the sender's timeout machinery can tell a
            # lost start from a slow receiver (see sender above)
            yield from ctx.rndv_reply(start, RndvReply(msg_id=start.msg_id))
        reg = yield from RegisteredUserBuffer.acquire(ctx, rreq.addr, cur.flat)
        inbox = ctx.msg_inbox(start.msg_id)
        nseg = start.meta["nseg"]
        done = 0
        while done < nseg:
            ready = yield from inbox.take()
            assert isinstance(ready, SegReady)
            # read-scatter: one RDMA read per <= MAX_SGE scatter entries
            chunks = yield from sge_chunks(ctx, rreq.addr, cur, ready.lo, ready.hi, reg)
            src_off = 0
            reads = []
            for sges in chunks:
                wr_id = ctx.new_wr_id()
                reads.append(ctx.send_completion(wr_id))
                yield from ctx.ctrl_qps[start.src].post_send(
                    SendWR(
                        Opcode.RDMA_READ,
                        sges=sges,
                        remote_addr=ready.addr + src_off,
                        rkey=ready.rkey,
                        wr_id=wr_id,
                    )
                )
                src_off += sges.nbytes
            yield ctx.sim.all_of(reads)
            yield from ctx.ctrl_send(
                start.src, SegAck(start.msg_id, ready.index, ready.last)
            )
            done += 1
        yield from reg.release(ctx)
