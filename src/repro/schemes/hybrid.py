"""Hybrid per-piece scheme selection — the paper's future work.

Section 10: "We believe it is feasible to choose an appropriate [scheme]
to fit a given datatype communication ... **This selection is also
possible within different parts of a single datatype message.  We are
currently working in this direction.**"  This module implements that
direction:

1. the sender ships its flattened layout in the rendezvous start (through
   the same version-numbered datatype cache Multi-W uses for the receiver
   layout, so it rides the wire only once per datatype);
2. the receiver replies with its own layout, its registered user-buffer
   regions, and a set of unpack segment buffers;
3. **both sides independently compute the same common refinement** of the
   two layouts and split the pieces at ``split_threshold``:

   * pieces >= the threshold go as direct zero-copy RDMA writes into the
     receiver's user buffer (the Multi-W treatment — startup amortizes);
   * smaller pieces are packed, in stream order, into pool segments and
     RDMA-written into the receiver's segment buffers, where the arrival
     notification triggers an unpack of exactly those pieces (the BC-SPUP
     treatment — no per-piece startup);

4. a final zero-byte RDMA-write-with-immediate closes the message; RC
   ordering guarantees all data has landed when it arrives.

For a datatype like the paper's Figure 10 struct — block sizes spanning
4 B to 512 KB in one message — neither Multi-W nor BC-SPUP alone is right
for every block; the hybrid takes each piece's best path.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.flatten import Flattened
from repro.datatypes.pack import pack_bytes
from repro.datatypes.segment import SegmentCursor
from repro.ib.verbs import Opcode, SendWR
from repro.mpi.messages import CTRL_HEADER_BYTES, RndvReply, SegArrival
from repro.schemes.base import (
    DatatypeScheme,
    RegisteredUserBuffer,
    advertise_layout,
    charge_dtproc,
    piece_writes,
    plan_segments,
    post_writes,
    recycle_pack_buffer,
    keys_for,
    send_rndv_start,
    unpack_segment,
    write_segment,
)
from repro.schemes.multiw import refine

__all__ = ["HybridScheme", "split_pieces"]


def split_pieces(pieces, threshold: int):
    """Partition refined ``(src, dst, len)`` piece arrays into (direct,
    packed), each three arrays again.

    Order within each partition is stream order, so both sides derive the
    same packed-byte layout deterministically.
    """
    big = pieces[2] >= threshold
    return tuple(a[big] for a in pieces), tuple(a[~big] for a in pieces)


class HybridScheme(DatatypeScheme):
    name = "hybrid"
    OPTIONS = ("split_threshold", "list_post")

    def __init__(self, ctx, split_threshold: int = 4096, list_post: bool = True):
        super().__init__(ctx)
        self.split_threshold = split_threshold
        self.list_post = list_post

    # -- sender -----------------------------------------------------------

    def sender(self, ctx, req):
        cur = req.cursor
        # ship the sender layout (cached per datatype) in the start
        src_layout, layout_bytes = advertise_layout(ctx, req.peer, req)
        start = yield from send_rndv_start(
            ctx, req, self.name,
            meta={"layout": src_layout, "threshold": self.split_threshold},
            nbytes=CTRL_HEADER_BYTES + layout_bytes,
        )
        reply = yield from ctx.rndv_await_reply(req, start)
        assert isinstance(reply, RndvReply)
        dst_flat = ctx.dt_cache.resolve(req.peer, reply.layout)
        pieces = refine(cur.flat, req.addr, dst_flat, reply.meta["base"])
        direct, packed = split_pieces(pieces, self.split_threshold)
        yield from charge_dtproc(ctx, len(pieces[0]))
        qp = ctx.ctrl_qps[req.peer]
        # 1. the Multi-W treatment for the big pieces: direct zero-copy
        # writes, registering only what they read from user memory
        reg = None
        src, dst, lengths = direct
        if len(src):
            direct_blocks = Flattened.from_blocks(
                np.column_stack((src - req.addr, lengths))
            )
            reg = yield from RegisteredUserBuffer.acquire(ctx, req.addr, direct_blocks)
            rkeys = keys_for(reply.meta["regions"], dst, lengths)
            wrs = piece_writes(ctx, direct, reg, rkeys)
            yield from post_writes(qp, wrs, self.list_post)
        # 2. the BC-SPUP treatment for the small pieces: packed, in stream
        # order, through pool segments (a cursor over absolute addresses)
        small = SegmentCursor.over_blocks(np.column_stack(packed[::2]))
        if small.total:
            segsize = ctx.cm.segment_size_for(small.total)
            for i, (lo, hi) in enumerate(plan_segments(small.total, segsize)):
                buf = yield from ctx.pack_pool.acquire()
                nblocks = pack_bytes(ctx.node.memory, 0, small, lo, hi, buf.addr)
                yield from ctx.charge_pack(hi - lo, nblocks)
                done = yield from write_segment(
                    ctx, req, reply.segments[i], i, lo, hi, buf.addr, buf.lkey,
                    last=False,
                )
                ctx.sim.process(recycle_pack_buffer(ctx, done, buf))
        # 3. fin marker: zero-byte write-with-immediate closes the message
        wr_id = ctx.new_wr_id()
        fin_done = ctx.send_completion(wr_id)
        yield from qp.post_send(
            SendWR(
                Opcode.RDMA_WRITE_IMM,
                imm=0xFFFF,
                wr_id=wr_id,
                payload=SegArrival(req.msg_id, -1, 0, 0, last=True),
            )
        )
        yield fin_done
        if reg is not None:
            yield from reg.release(ctx)

    # -- receiver ----------------------------------------------------------

    def receiver(self, ctx, rreq, start):
        cur = rreq.cursor
        src_flat = ctx.dt_cache.resolve(start.src, start.meta["layout"])
        pieces = refine(src_flat, 0, cur.flat, rreq.addr)
        _direct, packed = split_pieces(pieces, start.meta["threshold"])
        small = SegmentCursor.over_blocks(np.column_stack(packed[1:]))
        # register the whole receive layout: direct pieces land in it, and
        # the registration must cover them (OGR groups as usual)
        reg = yield from RegisteredUserBuffer.acquire(ctx, rreq.addr, cur.flat)
        # advertise segment buffers for the packed portion
        bufs = []
        if small.total:
            segs = plan_segments(small.total, ctx.cm.segment_size_for(small.total))
            bufs = yield from ctx.unpack_pool.acquire_block(
                [hi - lo for lo, hi in segs]
            )
        layout, extra = advertise_layout(ctx, start.src, rreq)
        reply = RndvReply(
            msg_id=start.msg_id,
            segments=tuple((b.addr, b.rkey, b.size) for b in bufs),
            layout=layout,
            meta={"base": rreq.addr, "regions": reg.regions()},
        )
        yield from ctx.rndv_reply(start, reply, nbytes=CTRL_HEADER_BYTES + extra)
        # consume segment arrivals (unpack small pieces) until the fin
        inbox = ctx.msg_inbox(start.msg_id)
        while True:
            note = yield from inbox.take()
            assert isinstance(note, SegArrival)
            if note.last:
                break
            yield from unpack_segment(ctx, 0, small, note, bufs[note.index])
            bufs[note.index] = None
        for buf in bufs:
            if buf is not None:  # fin can outrun nothing on RC, but be safe
                yield from ctx.unpack_pool.release(buf)
        yield from reg.release(ctx)
