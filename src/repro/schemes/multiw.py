"""Multiple RDMA Writes (Multi-W, Sections 5.3, 5.4.2, 7.4).

Zero-copy datatype communication: every contiguous piece of the message
is RDMA-written directly from sender user memory into receiver user
memory.  Requirements handled here:

* both sides register their user buffers (OGR + pin-down cache);
* the receiver ships its flattened layout and region rkeys in the
  rendezvous reply, via the version-numbered datatype cache (the full
  representation rides the wire only on first use);
* the sender computes the **common refinement** of the two block lists —
  each RDMA write's source must be contiguous at the sender *and* its
  destination contiguous at the receiver — and posts one descriptor per
  refined piece;
* descriptors are posted one-by-one (``list_post=False``) or through the
  Mellanox extended list-post interface (default; Figure 13 measures the
  difference).

The last descriptor carries immediate data so the receiver learns the
message is complete (writes are ordered on an RC queue pair).
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.flatten import Flattened
from repro.ib.verbs import Opcode
from repro.mpi.messages import CTRL_HEADER_BYTES, RndvReply, SegArrival
from repro.schemes.base import (
    DatatypeScheme,
    RegisteredUserBuffer,
    advertise_layout,
    charge_dtproc,
    piece_writes,
    post_writes,
    keys_for,
    send_rndv_start,
)

__all__ = ["MultiWScheme", "refine"]


def refine(
    src_flat: Flattened, src_base: int, dst_flat: Flattened, dst_base: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common refinement of two equal-size block lists.

    Returns the pieces in stream order as three int64 arrays ``(src_addr,
    dst_addr, length)``; each piece is contiguous on both sides.
    """
    if src_flat.size != dst_flat.size:
        raise ValueError(
            f"type signatures disagree: sender has {src_flat.size} bytes, "
            f"receiver expects {dst_flat.size}"
        )
    lengths = src_flat.lengths
    if len(lengths) == dst_flat.nblocks and (lengths == dst_flat.lengths).all():
        # the same type on both sides, the usual case: block for block
        return src_base + src_flat.offsets, dst_base + dst_flat.offsets, lengths
    # piece boundaries on the packed-byte axis: every block end of either side
    src_ends, dst_ends = np.cumsum(src_flat.lengths), np.cumsum(dst_flat.lengths)
    stops = np.union1d(src_ends, dst_ends)
    starts = np.concatenate(([0], stops[:-1]))
    si = np.searchsorted(src_ends, starts, side="right")
    di = np.searchsorted(dst_ends, starts, side="right")
    # address of a piece = its block's address + its distance from the block start
    src = src_base + src_flat.offsets[si] + starts - (src_ends - src_flat.lengths)[si]
    dst = dst_base + dst_flat.offsets[di] + starts - (dst_ends - dst_flat.lengths)[di]
    return src, dst, stops - starts


class MultiWScheme(DatatypeScheme):
    name = "multi-w"
    OPTIONS = ("list_post", "registration_mode", "use_dtype_cache")

    def __init__(self, ctx, list_post: bool = True,
                 registration_mode: str = "ogr", use_dtype_cache: bool = True):
        super().__init__(ctx)
        self.list_post = list_post
        self.registration_mode = registration_mode
        #: when False, the receiver resends the full flattened layout on
        #: every operation — the ablation for the Section 5.4.2 cache
        self.use_dtype_cache = use_dtype_cache

    # -- sender -----------------------------------------------------------

    def sender(self, ctx, req):
        cur = req.cursor
        start = yield from send_rndv_start(ctx, req, self.name)
        # register the sender's user buffer while waiting for the reply
        reg = yield from RegisteredUserBuffer.acquire(
            ctx, req.addr, cur.flat, mode=self.registration_mode
        )
        reply = yield from ctx.rndv_await_reply(req, start)
        assert isinstance(reply, RndvReply)
        dst_flat = ctx.dt_cache.resolve(req.peer, reply.layout)
        pieces = refine(cur.flat, req.addr, dst_flat, reply.meta["base"])
        _src, dst, lengths = pieces
        ctx.metrics.counter("scheme.rdma_pieces", ctx.rank).inc(len(dst))
        # datatype processing to build the descriptor list
        yield from charge_dtproc(ctx, len(dst))
        # regions: [(addr, len, rkey)] of the receiver's registered buffer
        rkeys = keys_for(reply.meta["regions"], dst, lengths)
        wrs = piece_writes(ctx, pieces, reg, rkeys)
        # the last descriptor carries the immediate that tells the receiver
        # the message is complete, and the send completion
        fin = wrs.last
        fin.opcode = Opcode.RDMA_WRITE_IMM
        fin.imm = len(wrs) - 1
        fin.signaled = True
        fin.payload = SegArrival(req.msg_id, fin.imm, 0, cur.total, last=True)
        done = ctx.send_completion(fin.wr_id)
        yield from post_writes(ctx.ctrl_qps[req.peer], wrs, self.list_post)
        yield done
        yield from reg.release(ctx)

    # -- receiver ----------------------------------------------------------

    def receiver(self, ctx, rreq, start):
        cur = rreq.cursor
        reg = yield from RegisteredUserBuffer.acquire(
            ctx, rreq.addr, cur.flat, mode=self.registration_mode
        )
        # a full layout rides the wire at 16 bytes per block; a cached
        # reference costs only the header
        if self.use_dtype_cache:
            layout, extra = advertise_layout(ctx, start.src, rreq)
        else:
            # ablation: always ship the full representation
            signature = (rreq.datatype.signature(), rreq.count)
            idx, version = ctx.type_registry.intern(signature, cur.flat)
            layout, extra = ("full", idx, version, cur.flat), cur.flat.wire_bytes
        reply = RndvReply(
            msg_id=start.msg_id,
            layout=layout,
            meta={"base": rreq.addr, "regions": reg.regions()},
        )
        yield from ctx.rndv_reply(start, reply, nbytes=CTRL_HEADER_BYTES + extra)
        note = yield from ctx.msg_inbox(start.msg_id).take()
        assert isinstance(note, SegArrival) and note.last
        yield from reg.release(ctx)
