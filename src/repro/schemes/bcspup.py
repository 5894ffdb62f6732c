"""Buffer-Centric Segment Pack/Unpack (BC-SPUP, Sections 4.2-4.3, 7.2).

The message is split into segments (static rule of Section 7.2).  For
each segment the sender acquires a pre-registered pack buffer from the
pool, packs the segment, and RDMA-writes it with immediate data into the
receiver's advertised unpack segment buffer.  The pipeline emerges from
the simulation's resource model:

* while the HCA injects segment *i*, the CPU packs segment *i+1*;
* on the receiver, each immediate-data completion triggers the unpack of
  that segment while later segments are still on the wire (Figure 3).

Pack buffers are recycled as their send completions arrive (a dedicated
recycler consumes local CQEs), so a long message cycles through a few
buffers instead of draining the pool.
"""

from __future__ import annotations

from repro.datatypes.pack import pack_bytes
from repro.mpi.messages import RndvReply
from repro.schemes.base import (
    DatatypeScheme,
    plan_segments,
    recycle_pack_buffer,
    send_rndv_start,
    staged_receiver,
    write_segment,
)

__all__ = ["BCSPUPScheme"]


class BCSPUPScheme(DatatypeScheme):
    name = "bc-spup"
    OPTIONS = ("segment_size",)

    def __init__(self, ctx, segment_size=None):
        """``segment_size`` overrides the static rule of Section 7.2 —
        "Tuning on the segment size is quite important; however, as a
        proof-of-concept implementation, we simplify the selection".  The
        segment-size ablation benchmark sweeps this."""
        super().__init__(ctx)
        self.segment_size = segment_size

    def sender(self, ctx, req):
        node = ctx.node
        cur = req.cursor
        nbytes = cur.total
        if self.segment_size is not None:
            # the pool's buffers bound the maximum supported segment size
            # (128 KB in the paper's implementation, Section 7.2)
            segsize = min(self.segment_size, ctx.cm.segment_size, max(nbytes, 1))
        else:
            segsize = ctx.cm.segment_size_for(nbytes)
        segs = plan_segments(nbytes, segsize)
        ctx.metrics.counter("scheme.segments", ctx.rank).inc(len(segs))
        start = yield from send_rndv_start(
            ctx, req, self.name, meta={"segsize": segsize}
        )
        reply = yield from ctx.rndv_await_reply(req, start)
        assert isinstance(reply, RndvReply)
        assert len(reply.segments) >= len(segs)
        t_acquire = ctx.sim.now
        bufs = yield from ctx.pack_pool.acquire_block([hi - lo for lo, hi in segs])
        ctx.metrics.counter("scheme.buffer_wait_us", ctx.rank).inc(
            ctx.sim.now - t_acquire
        )
        completions = []
        for i, (lo, hi) in enumerate(segs):
            buf = bufs[i]
            nblocks = pack_bytes(node.memory, req.addr, cur, lo, hi, buf.addr)
            yield from ctx.charge_pack(hi - lo, nblocks)
            done = yield from write_segment(
                ctx, req, reply.segments[i], i, lo, hi, buf.addr, buf.lkey,
                last=(i == len(segs) - 1),
            )
            completions.append(done)
            # recycle the pack buffer once the HCA is done with it, without
            # stalling the pipeline
            ctx.sim.process(recycle_pack_buffer(ctx, done, buf))
        # the send completes when every segment has left the pack buffers;
        # time spent here is pipeline drain (CPU done, HCA still injecting)
        t_drain = ctx.sim.now
        yield ctx.sim.all_of(completions)
        ctx.metrics.counter("scheme.drain_wait_us", ctx.rank).inc(
            ctx.sim.now - t_drain
        )

    def receiver(self, ctx, rreq, start):
        yield from staged_receiver(ctx, rreq, start, segment_unpack=True)
