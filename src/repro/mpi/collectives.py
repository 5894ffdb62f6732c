"""Collective operations over point-to-point datatype communication.

The paper's Section 8.3 observation: collectives that are implemented
over point-to-point sends of derived datatypes (MPI_Alltoall among them,
per Thakur & Gropp [28]) inherit whatever the point-to-point datatype
path delivers — so the schemes' improvements carry over.  These
implementations deliberately use the plain pairwise/point-to-point
algorithms of MPICH-1.2-era code.

All functions are generators taking the calling rank's
:class:`~repro.mpi.context.RankContext` first.
"""

from __future__ import annotations

from repro.datatypes.base import Datatype

__all__ = [
    "allgather",
    "allreduce",
    "alltoall",
    "alltoallv",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "scatter",
]

_BARRIER_TAG = -1001
_BCAST_TAG = -1002
_ALLGATHER_TAG = -1003
_ALLTOALL_TAG = -1004
_GATHER_TAG = -1005
_SCATTER_TAG = -1006
_REDUCE_TAG = -1007

#: zero-byte datatype for barrier messages
from repro.datatypes import contiguous, BYTE

_EMPTY = contiguous(0, BYTE)


def barrier(ctx):
    """Dissemination barrier with zero-byte messages (log2(n) rounds)."""
    n = ctx.nranks
    if n == 1:
        return
        yield  # pragma: no cover
    # every rank needs a dummy 1-byte buffer for the empty messages
    scratch = getattr(ctx, "_barrier_scratch", None)
    if scratch is None:
        scratch = ctx.alloc(8)
        ctx._barrier_scratch = scratch
    dist = 1
    while dist < n:
        dest = (ctx.rank + dist) % n
        src = (ctx.rank - dist) % n
        sreq = yield from ctx.isend(scratch, _EMPTY, 0, dest, _BARRIER_TAG - dist)
        rreq = yield from ctx.irecv(scratch, _EMPTY, 0, src, _BARRIER_TAG - dist)
        yield from ctx.waitall([sreq, rreq])
        dist *= 2


def bcast(ctx, addr: int, datatype: Datatype, count: int, root: int):
    """Binomial-tree broadcast."""
    n = ctx.nranks
    if n == 1:
        return
        yield  # pragma: no cover
    vrank = (ctx.rank - root) % n
    # receive from parent
    if vrank != 0:
        mask = 1
        while not vrank & mask:
            mask <<= 1
        parent = (vrank - mask + root) % n
        yield from ctx.recv(addr, datatype, count, parent, _BCAST_TAG)
        mask >>= 1
    else:
        mask = 1
        while mask * 2 < n:
            mask *= 2
    # forward to children
    reqs = []
    while mask:
        child_v = vrank + mask
        if child_v < n:
            child = (child_v + root) % n
            req = yield from ctx.isend(addr, datatype, count, child, _BCAST_TAG)
            reqs.append(req)
        mask >>= 1
    if reqs:
        yield from ctx.waitall(reqs)


def allgather(ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount):
    """Ring allgather: n-1 steps, each rank forwards the next chunk.

    ``recvaddr`` holds ``nranks`` consecutive (recvtype, recvcount)
    chunks, chunk ``i`` receiving rank ``i``'s contribution.
    """
    n = ctx.nranks
    chunk_extent = recvtype.extent * recvcount

    def chunk_addr(i):
        return recvaddr + i * chunk_extent

    # place own contribution (local copy through the self path)
    sreq = yield from ctx.isend(sendaddr, sendtype, sendcount, ctx.rank, _ALLGATHER_TAG)
    rreq = yield from ctx.irecv(
        chunk_addr(ctx.rank), recvtype, recvcount, ctx.rank, _ALLGATHER_TAG
    )
    yield from ctx.waitall([sreq, rreq])
    if n == 1:
        return
    right = (ctx.rank + 1) % n
    left = (ctx.rank - 1) % n
    for step in range(n - 1):
        send_chunk = (ctx.rank - step) % n
        recv_chunk = (ctx.rank - step - 1) % n
        sreq = yield from ctx.isend(
            chunk_addr(send_chunk), recvtype, recvcount, right,
            _ALLGATHER_TAG - 1 - step,
        )
        rreq = yield from ctx.irecv(
            chunk_addr(recv_chunk), recvtype, recvcount, left, _ALLGATHER_TAG - 1 - step
        )
        yield from ctx.waitall([sreq, rreq])


def gather(ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount, root):
    """Linear gather to ``root``; chunk ``i`` of the root's receive buffer
    receives rank ``i``'s contribution."""
    n = ctx.nranks
    if ctx.rank == root:
        reqs = []
        chunk_extent = recvtype.extent * recvcount
        for src in range(n):
            req = yield from ctx.irecv(
                recvaddr + src * chunk_extent, recvtype, recvcount, src, _GATHER_TAG
            )
            reqs.append(req)
        sreq = yield from ctx.isend(sendaddr, sendtype, sendcount, root, _GATHER_TAG)
        reqs.append(sreq)
        yield from ctx.waitall(reqs)
    else:
        yield from ctx.send(sendaddr, sendtype, sendcount, root, _GATHER_TAG)


def scatter(ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount, root):
    """Linear scatter from ``root``; chunk ``i`` of the root's send buffer
    goes to rank ``i``."""
    n = ctx.nranks
    if ctx.rank == root:
        reqs = []
        chunk_extent = sendtype.extent * sendcount
        for dst in range(n):
            req = yield from ctx.isend(
                sendaddr + dst * chunk_extent, sendtype, sendcount, dst, _SCATTER_TAG
            )
            reqs.append(req)
        rreq = yield from ctx.irecv(recvaddr, recvtype, recvcount, root, _SCATTER_TAG)
        reqs.append(rreq)
        yield from ctx.waitall(reqs)
    else:
        yield from ctx.recv(recvaddr, recvtype, recvcount, root, _SCATTER_TAG)


def _apply_op(ctx, op, accum_addr, contrib_addr, count, np_dtype):
    """Combine a contribution into an accumulator buffer, charging the
    CPU for the arithmetic as a copy-rate pass."""
    import numpy as np

    itemsize = np.dtype(np_dtype).itemsize
    acc = ctx.node.memory.view(accum_addr, count * itemsize).view(np_dtype)
    con = ctx.node.memory.view(contrib_addr, count * itemsize).view(np_dtype)
    if op == "sum":
        acc += con
    elif op == "max":
        import numpy as np

        np.maximum(acc, con, out=acc)
    elif op == "min":
        import numpy as np

        np.minimum(acc, con, out=acc)
    elif op == "prod":
        acc *= con
    else:
        raise ValueError(f"unknown reduction op {op!r}")
    yield from ctx.node.copy_work(count * itemsize, 0, f"reduce-{op}")


def reduce(ctx, sendaddr, recvaddr, count, np_dtype, op="sum", root=0):
    """Binomial-tree reduction of ``count`` elements of ``np_dtype``.

    Contiguous data only (reductions on derived datatypes reduce their
    packed streams; pack first with :meth:`RankContext.user_pack`).
    """
    import numpy as np

    n = ctx.nranks
    itemsize = np.dtype(np_dtype).itemsize
    nbytes = count * itemsize
    dt = contiguous(nbytes, BYTE)
    accum = ctx.alloc(max(nbytes, 1))
    ctx.node.memory.view(accum, nbytes)[:] = ctx.node.memory.view(sendaddr, nbytes)
    scratch = ctx.alloc(max(nbytes, 1))
    vrank = (ctx.rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % n
            yield from ctx.send(accum, dt, 1, parent, _REDUCE_TAG)
            break
        partner_v = vrank | mask
        if partner_v < n:
            partner = (partner_v + root) % n
            yield from ctx.recv(scratch, dt, 1, partner, _REDUCE_TAG)
            yield from _apply_op(ctx, op, accum, scratch, count, np_dtype)
        mask <<= 1
    if ctx.rank == root:
        ctx.node.memory.view(recvaddr, nbytes)[:] = ctx.node.memory.view(accum, nbytes)
        yield from ctx.node.copy_work(nbytes, 0, "reduce-copyout")
    ctx.node.memory.free(accum)
    ctx.node.memory.free(scratch)


def allreduce(ctx, sendaddr, recvaddr, count, np_dtype, op="sum"):
    """Reduce to rank 0, then broadcast (the classic two-phase allreduce)."""
    import numpy as np

    yield from reduce(ctx, sendaddr, recvaddr, count, np_dtype, op, root=0)
    nbytes = count * np.dtype(np_dtype).itemsize
    yield from bcast(ctx, recvaddr, contiguous(nbytes, BYTE), 1, root=0)


#: Bruck cutoffs, *measured on this cost model* (see tests/mpi/test_bruck):
#: the fully-pipelined eager path makes pairwise exchange cheap (~4.5 us
#: of sender CPU per message, wire overlapped), so Bruck's O(n log n)
#: extra copies only pay off for near-empty chunks at larger process
#: counts — much later than MPICH's cutoff on real hardware, where
#: per-message protocol costs are higher.
BRUCK_THRESHOLD = 16
BRUCK_MIN_RANKS = 32


def alltoall(ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount):
    """MPI_Alltoall with measured algorithm selection.

    Tiny per-destination payloads at scale use Bruck's algorithm
    (log2(n) rounds of aggregated messages — fewer startups); everything
    else uses the pairwise irecv/isend exchange the paper's Figure 11
    measures.
    """
    nbytes = sendtype.size * sendcount
    if ctx.nranks >= BRUCK_MIN_RANKS and 0 < nbytes <= BRUCK_THRESHOLD:
        yield from _alltoall_bruck(
            ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount
        )
    else:
        yield from _alltoall_pairwise(
            ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount
        )


def _alltoall_bruck(ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount):
    """Bruck's algorithm: ceil(log2 n) rounds; round k ships every chunk
    whose (rotated) destination index has bit k set, aggregated into one
    message — n startups become log n at the price of extra copies."""
    import math

    from repro.datatypes import BYTE, contiguous

    n = ctx.nranks
    nbytes = sendtype.size * sendcount
    send_extent = sendtype.extent * sendcount
    # local rotation: staging[i] = packed chunk for rank (rank + i) % n
    staging = ctx.alloc(n * nbytes)
    scratch = ctx.alloc(n * nbytes)  # outbound aggregate per round
    rscratch = ctx.alloc(n * nbytes)  # inbound aggregate per round
    for i in range(n):
        dst = (ctx.rank + i) % n
        yield from ctx.user_pack(
            sendaddr + dst * send_extent, sendtype, sendcount, staging + i * nbytes
        )
    rounds = max(1, math.ceil(math.log2(n)))
    for k in range(rounds):
        bit = 1 << k
        idxs = [i for i in range(n) if i & bit]
        if not idxs:
            continue
        # gather the selected chunks into scratch, exchange, scatter back
        for j, i in enumerate(idxs):
            ctx.node.memory.view(scratch + j * nbytes, nbytes)[:] = (
                ctx.node.memory.view(staging + i * nbytes, nbytes)
            )
        yield from ctx.node.copy_work(len(idxs) * nbytes, len(idxs), "bruck")
        blk = contiguous(len(idxs) * nbytes, BYTE)
        dest = (ctx.rank + bit) % n
        src = (ctx.rank - bit) % n
        sreq = yield from ctx.isend(scratch, blk, 1, dest, _ALLTOALL_TAG - 10 - k)
        rreq = yield from ctx.irecv(rscratch, blk, 1, src, _ALLTOALL_TAG - 10 - k)
        yield from ctx.waitall([sreq, rreq])
        for j, i in enumerate(idxs):
            ctx.node.memory.view(staging + i * nbytes, nbytes)[:] = (
                ctx.node.memory.view(rscratch + j * nbytes, nbytes)
            )
        yield from ctx.node.copy_work(len(idxs) * nbytes, len(idxs), "bruck")
    # inverse rotation + unpack: staging[i] now holds the chunk FROM rank
    # (rank - i) % n
    recv_extent = recvtype.extent * recvcount
    for i in range(n):
        src = (ctx.rank - i) % n
        yield from ctx.user_unpack(
            recvaddr + src * recv_extent, recvtype, recvcount, staging + i * nbytes
        )
    ctx.node.memory.free(staging)
    ctx.node.memory.free(scratch)
    ctx.node.memory.free(rscratch)


def _alltoall_pairwise(
    ctx, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount
):
    """Pairwise-irecv/isend alltoall (the MPICH medium-message algorithm).

    Chunk ``i`` of the send buffer goes to rank ``i``; chunk ``i`` of the
    receive buffer comes from rank ``i``.  Chunks are laid out every
    ``extent * count`` bytes.
    """
    n = ctx.nranks
    send_extent = sendtype.extent * sendcount
    recv_extent = recvtype.extent * recvcount
    reqs = []
    # post all receives first (from rank+1, rank+2, ... wrapping) so
    # rendezvous starts always find a matched receive
    for step in range(n):
        src = (ctx.rank + step) % n
        req = yield from ctx.irecv(
            recvaddr + src * recv_extent, recvtype, recvcount, src, _ALLTOALL_TAG
        )
        reqs.append(req)
    for step in range(n):
        dst = (ctx.rank - step) % n
        req = yield from ctx.isend(
            sendaddr + dst * send_extent, sendtype, sendcount, dst, _ALLTOALL_TAG
        )
        reqs.append(req)
    yield from ctx.waitall(reqs)


def alltoallv(
    ctx,
    sendaddr,
    sendtype,
    sendcounts,
    sdispls,
    recvaddr,
    recvtype,
    recvcounts,
    rdispls,
):
    """MPI_Alltoallv: per-peer counts and byte displacements.

    ``sendcounts[i]`` elements of ``sendtype`` starting ``sdispls[i]``
    bytes into the send buffer go to rank ``i``; symmetric on receive.
    Zero-count exchanges are skipped entirely (no message).
    """
    n = ctx.nranks
    if not (len(sendcounts) == len(sdispls) == len(recvcounts) == len(rdispls) == n):
        raise ValueError("alltoallv argument arrays must have nranks entries")
    reqs = []
    for step in range(n):
        src = (ctx.rank + step) % n
        if recvcounts[src] > 0:
            req = yield from ctx.irecv(
                recvaddr + rdispls[src], recvtype, recvcounts[src], src, _ALLTOALL_TAG
            )
            reqs.append(req)
    for step in range(n):
        dst = (ctx.rank - step) % n
        if sendcounts[dst] > 0:
            req = yield from ctx.isend(
                sendaddr + sdispls[dst], sendtype, sendcounts[dst], dst, _ALLTOALL_TAG
            )
            reqs.append(req)
    yield from ctx.waitall(reqs)
