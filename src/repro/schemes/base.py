"""Scheme interface and shared rendezvous machinery.

A scheme contributes two generator methods that plug into the rendezvous
protocol:

* ``sender(ctx, req)`` — runs on the sending rank after ``isend`` decides
  the message is a rendezvous message; must move all data and return when
  the *send* completes (user send buffer reusable).
* ``receiver(ctx, rreq, start)`` — spawned on the receiving rank when a
  ``RndvStart`` matches a posted receive; must return when all data is in
  the user receive buffer.

Every scheme is an orchestration of a few verbs primitives plus CPU
copies, and each of those mechanisms lives here exactly once — the scheme
files (and ``mpi.rma.put``) contain the *order* in which they are called:

* the handshake: :func:`send_rndv_start`, :func:`advertise_layout`;
* user-buffer registration through the OGR planner + pin-down cache
  (:class:`RegisteredUserBuffer`) and the lookup of a peer's advertised
  regions (:func:`keys_for`);
* one write per refined piece: :func:`piece_writes`, :func:`post_writes`
  (the caller bills the list with :func:`charge_dtproc`);
* gather / scatter lists of at most ``MAX_SGE`` entries, billed the same
  way: :func:`sge_chunks` (:func:`sge_lists` uncharged);
* a staging buffer into an advertised segment: :func:`write_segment`,
  with :func:`recycle_pack_buffer` returning the pool buffer afterwards;
* a landed segment into user memory: :func:`unpack_segment`, the step
  :func:`staged_receiver` (BC-SPUP, RWG-UP) and Hybrid both take.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.datatypes.pack import unpack_bytes
from repro.ib.verbs import MAX_SGE, Opcode, SGE, SGEList, SendWR, WriteList
from repro.mpi.messages import CTRL_HEADER_BYTES, RndvReply, RndvStart, SegArrival
from repro.registration.ogr import plan_regions

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.context import RankContext
    from repro.mpi.requests import Request

__all__ = [
    "DatatypeScheme",
    "RegisteredUserBuffer",
    "advertise_layout",
    "charge_dtproc",
    "keys_for",
    "piece_writes",
    "plan_segments",
    "post_writes",
    "recycle_pack_buffer",
    "send_rndv_start",
    "sge_chunks",
    "sge_lists",
    "staged_receiver",
    "unpack_segment",
    "write_segment",
]


def send_rndv_start(
    ctx: "RankContext", req: "Request", scheme: str, meta=None,
    nbytes: int = CTRL_HEADER_BYTES,
):
    """Send the rendezvous start control message (generator); ``nbytes``
    is its size on the wire (header plus any layout riding along)."""
    start = RndvStart(
        src=ctx.rank,
        tag=req.tag,
        msg_id=req.msg_id,
        nbytes=req.nbytes,
        scheme=scheme,
        seq=req.seq,
        meta=meta,
    )
    yield from ctx.ctrl_send(req.peer, start, nbytes=nbytes)
    return start


def advertise_layout(ctx: "RankContext", peer: int, req: "Request"):
    """``(layout, extra wire bytes)`` advertising ``req``'s flattened
    layout to ``peer`` through the version-numbered datatype cache
    (Section 5.4.2): a full layout rides the wire at 16 bytes per block,
    a cached reference costs only the header."""
    flat = req.cursor.flat
    layout = ctx.type_registry.encode_for(
        peer, (req.datatype.signature(), req.count), flat,
        force_full=ctx.faults_active,
    )
    return layout, flat.wire_bytes if layout[0] == "full" else 0


def keys_for(regions, addrs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """For every block ``[addrs[i], +lengths[i])``, the key of the first of
    the ``(addr, length, key)`` ``regions`` — a peer's advertisement, or
    one's own registrations — that covers it: one binary search by region
    start; a block the region found there does not cover is looked up alone.
    With one region there is nothing to look up, and whether it covers a
    block is for ``check_local`` / ``check_remote`` to say."""
    if len(regions) == 1:
        return np.full(len(addrs), regions[0][2], dtype=np.int64)
    by_start = sorted(regions, key=lambda region: region[0])
    starts, sizes, keys = np.array(by_start, dtype=np.int64).reshape(-1, 3).T
    found = np.searchsorted(starts, addrs, side="right") - 1
    out, ends = keys[found], addrs + lengths
    for i in np.flatnonzero((found < 0) | (ends > (starts + sizes)[found])).tolist():
        covering = [k for a, n, k in regions if a <= addrs[i] and ends[i] <= a + n]
        if not covering:
            raise KeyError(f"no region covers [{addrs[i]:#x}, +{lengths[i]})")
        out[i] = covering[0]
    return out


def charge_dtproc(ctx: "RankContext", nblocks: int):
    """Charge the datatype processing that builds an ``nblocks``-entry
    descriptor or gather list (generator)."""
    yield from ctx.node.cpu_work(
        ctx.cm.dt_startup + nblocks * ctx.cm.dt_per_block, "dtproc"
    )


def piece_writes(ctx: "RankContext", pieces, reg, rkeys) -> WriteList:
    """One unsignaled RDMA write per refined piece — ``pieces`` is
    :func:`~repro.schemes.multiw.refine`'s ``(src, dst, length)`` arrays —
    from registered user memory (``reg``) straight into the peer's, under
    ``rkeys[i]``; one ``wr_id`` each, reserved in a block.  Callers that
    need a completion or an arrival notification upgrade the ``last``
    descriptor of the list."""
    src, _dst, lengths = pieces
    lkeys = reg.lkeys_for(src, lengths)
    return WriteList(pieces, lkeys, rkeys, ctx.new_wr_id(len(src)))


def post_writes(qp, wrs, list_post: bool):
    """Post descriptors through the Mellanox extended list-post interface
    or one by one (generator; Figure 13 measures the difference)."""
    if list_post:
        yield from qp.post_send_list(wrs)
    else:
        for wr in wrs:
            yield from qp.post_send(wr)


def sge_lists(base_addr: int, cursor, lo: int, hi: int, reg) -> list[SGEList]:
    """Gather/scatter lists for packed bytes [lo, hi) of the stream rooted
    at ``base_addr``, uncharged: one :class:`~repro.ib.verbs.SGEList` of at
    most ``MAX_SGE`` (the Mellanox limit) entries per descriptor, each with
    the cut's shape (bytes, the cursor's ``width``, the lkey if only one)."""
    offsets, lengths = cursor.slices(lo, hi)
    if not len(offsets):
        return []
    addrs = base_addr + offsets
    lkeys = reg.lkeys_for(addrs, lengths)
    sole = int(lkeys[0]) if (lkeys == lkeys[0]).all() else None
    starts, width = range(0, len(addrs), MAX_SGE), cursor.width
    sizes = np.add.reduceat(lengths, starts).tolist()
    return [
        SGEList(*(a[k : k + MAX_SGE] for a in (addrs, lengths, lkeys)), n, width, sole)
        for k, n in zip(starts, sizes)
    ]


def sge_chunks(ctx: "RankContext", base_addr: int, cursor, lo: int, hi: int, reg):
    """:func:`sge_lists`, charged as the datatype processing that builds
    them (generator): RWG-UP's write-gather and P-RRS's read-scatter."""
    lists = sge_lists(base_addr, cursor, lo, hi, reg)
    yield from charge_dtproc(ctx, sum(map(len, lists)))
    return lists


def write_segment(
    ctx: "RankContext", req: "Request", segment, index: int, lo: int, hi: int,
    addr: int, lkey: int, last: bool,
):
    """RDMA-write packed bytes [lo, hi), staged at ``addr``, into the
    advertised ``(addr, rkey, capacity)`` ``segment``; the immediate
    carries the :class:`SegArrival` that drives the receiver's unpack
    (generator returning the send-completion event)."""
    dst_addr, dst_rkey, cap = segment
    assert hi - lo <= cap
    wr_id = ctx.new_wr_id()
    done = ctx.send_completion(wr_id)
    yield from ctx.ctrl_qps[req.peer].post_send(
        SendWR(
            Opcode.RDMA_WRITE_IMM,
            sges=[SGE(addr, hi - lo, lkey)],
            remote_addr=dst_addr,
            rkey=dst_rkey,
            imm=index,
            wr_id=wr_id,
            payload=SegArrival(req.msg_id, index, lo, hi, last=last),
        )
    )
    return done


def recycle_pack_buffer(ctx: "RankContext", done, buf):
    """Return a pack-pool buffer once the HCA is done with it (spawned as
    its own process, so the pipeline never stalls on a send CQE)."""
    yield done
    yield from ctx.pack_pool.release(buf)


def unpack_segment(
    ctx: "RankContext", base_addr: int, cursor, note: SegArrival, buf,
    penalty: float = 1.0,
):
    """Unpack the landed segment ``note`` announces from ``buf`` into the
    stream rooted at ``base_addr``, charge the copy, and return the
    buffer to the unpack pool (generator)."""
    nblocks = unpack_bytes(
        ctx.node.memory, base_addr, cursor, note.lo, note.hi, buf.addr
    )
    yield from ctx.charge_pack(note.hi - note.lo, nblocks, "unpack", penalty=penalty)
    yield from ctx.unpack_pool.release(buf)


class RegisteredUserBuffer:
    """User-buffer registration served by the pin-down cache
    (Section 5.4.1).

    Three strategies, matching the section's discussion:

    * ``"ogr"`` (default) — Optimistic Group Registration: group blocks
      into covering regions by the gap/base-cost trade-off;
    * ``"per-block"`` — "registers only contiguous blocks.  A large
      number of buffer registration and deregistration events occur";
    * ``"whole"`` — "registers the whole buffer which covers the datatype
      message, including gaps ... at the cost of registering more space".

    On a cache hit any strategy costs nothing; with the cache disabled
    (Figure 14) every acquire registers and every release deregisters.
    """

    def __init__(self):
        self._mrs = []

    @classmethod
    def acquire(cls, ctx: "RankContext", base_addr: int, flat, mode: str = "ogr"):
        """Register the block list ``flat`` (offsets relative to
        ``base_addr``) per the chosen strategy (generator)."""
        self = cls()
        if not flat.nblocks:
            return self
        addrs = base_addr + flat.offsets
        if mode == "ogr":
            plan = plan_regions(np.column_stack((addrs, flat.lengths)), ctx.cm)
        elif mode == "per-block":
            plan = zip(addrs.tolist(), flat.lengths.tolist())
        elif mode == "whole":
            lo = int(addrs.min())
            plan = [(lo, int((addrs + flat.lengths).max()) - lo)]
        else:
            raise ValueError(f"unknown registration mode {mode!r}")
        for addr, length in plan:
            mr = yield from ctx.reg_cache.acquire(addr, length)
            self._mrs.append(mr)
        return self

    def lkey_for(self, addr: int, length: int) -> int:
        for mr in self._mrs:
            if mr.covers(addr, length):
                return mr.lkey
        raise KeyError(f"no registered region covers [{addr:#x}, +{length})")

    def lkeys_for(self, addrs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """:meth:`lkey_for` of every block (:func:`keys_for`)."""
        regions = [(mr.addr, mr.length, mr.lkey) for mr in self._mrs]
        return keys_for(regions, addrs, lengths)

    def regions(self) -> list[tuple[int, int, int]]:
        """(addr, length, rkey) advertisement for the remote side."""
        return [(mr.addr, mr.length, mr.rkey) for mr in self._mrs]

    def release(self, ctx: "RankContext"):
        """Return all regions to the cache (generator)."""
        for mr in self._mrs:
            yield from ctx.reg_cache.release(mr)
        self._mrs.clear()


class DatatypeScheme:
    """Base class: common naming and option plumbing."""

    #: registry name; subclasses override
    name = "base"
    #: constructor options accepted from Cluster(scheme_options=...)
    OPTIONS: tuple = ()
    #: True for the MPICH-derived eager path with staging copies
    eager_two_copy = False

    def __init__(self, ctx: "RankContext"):
        self.ctx = ctx

    def sender(self, ctx: "RankContext", req: "Request"):  # pragma: no cover
        raise NotImplementedError

    def receiver(self, ctx, rreq, start):  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} rank={self.ctx.rank}>"


def plan_segments(nbytes: int, segment_size: int) -> list[tuple[int, int]]:
    """Split [0, nbytes) into (lo, hi) segments of ``segment_size``."""
    nseg = max(1, math.ceil(nbytes / segment_size))
    return [
        (i * segment_size, min((i + 1) * segment_size, nbytes)) for i in range(nseg)
    ]


def staged_receiver(
    ctx: "RankContext",
    rreq: "Request",
    start: RndvStart,
    *,
    segment_unpack: bool = True,
):
    """The segment-unpack receiver shared by BC-SPUP and RWG-UP.

    Acquires one unpack segment buffer per expected segment, advertises
    them in the rendezvous reply, then unpacks each segment as its
    RDMA-write-with-immediate notification arrives (or, with
    ``segment_unpack=False`` — the Figure 12 ablation — only after the
    whole message has landed).
    """
    nbytes = start.nbytes
    segsize = (start.meta or {}).get("segsize") or ctx.cm.segment_size_for(nbytes)
    segs = plan_segments(nbytes, segsize)
    ctx.metrics.counter("scheme.segments", ctx.rank).inc(len(segs))
    t_acquire = ctx.sim.now
    bufs = yield from ctx.unpack_pool.acquire_block([hi - lo for lo, hi in segs])
    ctx.metrics.counter("scheme.buffer_wait_us", ctx.rank).inc(
        ctx.sim.now - t_acquire
    )
    reply = RndvReply(
        msg_id=start.msg_id,
        segments=tuple((b.addr, b.rkey, b.size) for b in bufs),
    )
    yield from ctx.rndv_reply(start, reply)
    inbox = ctx.msg_inbox(start.msg_id)
    pending: list[SegArrival] = []
    arrived = 0
    while arrived < len(segs):
        note = yield from inbox.take()
        assert isinstance(note, SegArrival)
        arrived += 1
        if segment_unpack:
            yield from unpack_segment(
                ctx, rreq.addr, rreq.cursor, note, bufs[note.index]
            )
        else:
            pending.append(note)
    # whole-message unpack after everything arrived: no overlap, and the
    # multi-megabyte staging footprint streams through the cache cold
    # (CostModel.deferred_unpack_penalty; Figure 12)
    for note in sorted(pending, key=lambda s: s.index):
        yield from unpack_segment(
            ctx, rreq.addr, rreq.cursor, note, bufs[note.index],
            penalty=ctx.cm.deferred_unpack_penalty,
        )
