"""Sub-communicators: MPI_Comm_split over the simulated runtime.

A :class:`Communicator` is a rank-translated, tag-isolated view of the
world context: sends address communicator ranks, tags are offset by a
context id (the MPI notion), and every collective algorithm in
:mod:`repro.mpi.collectives` runs unchanged against it because it
duck-types the parts of :class:`~repro.mpi.context.RankContext` they use.

Typical use — row/column communicators of a 2-D process grid::

    row = yield from mpi.comm_split(color=mpi.rank // PX, key=mpi.rank)
    yield from row.allgather(send, dt, 1, recv, dt, 1)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Communicator", "comm_split"]

#: tag-space stride between context ids; user tags must stay below this
_CTX_STRIDE = 1 << 22


class Communicator:
    """A communicator over a subset of world ranks."""

    def __init__(self, ctx, context_id: int, members: Sequence[int]):
        self.ctx = ctx
        self.context_id = context_id
        #: communicator rank -> world rank
        self.members = list(members)
        self.nranks = len(members)
        self.rank = self.members.index(ctx.rank)
        self._barrier_scratch = None

    # -- plumbing the collectives expect -----------------------------------

    @property
    def sim(self):
        return self.ctx.sim

    @property
    def node(self):
        return self.ctx.node

    @property
    def cm(self):
        return self.ctx.cm

    @property
    def now(self):
        return self.ctx.now

    def alloc(self, nbytes: int, align: int = 64) -> int:
        return self.ctx.alloc(nbytes, align)

    def alloc_array(self, shape, dtype):
        return self.ctx.alloc_array(shape, dtype)

    def _xlat_tag(self, tag: int) -> int:
        if tag >= 0:
            return tag + self.context_id * _CTX_STRIDE
        return tag - self.context_id * _CTX_STRIDE

    # -- point-to-point ----------------------------------------------------

    def isend(self, addr, datatype, count, dest, tag):
        req = yield from self.ctx.isend(
            addr, datatype, count, self.members[dest], self._xlat_tag(tag)
        )
        return req

    def irecv(self, addr, datatype, count, source, tag):
        req = yield from self.ctx.irecv(
            addr, datatype, count, self.members[source], self._xlat_tag(tag)
        )
        return req

    def send(self, addr, datatype, count, dest, tag):
        req = yield from self.isend(addr, datatype, count, dest, tag)
        yield from self.ctx.wait(req)

    def recv(self, addr, datatype, count, source, tag):
        req = yield from self.irecv(addr, datatype, count, source, tag)
        yield from self.ctx.wait(req)
        return req

    def wait(self, req):
        yield from self.ctx.wait(req)

    def waitall(self, reqs):
        yield from self.ctx.waitall(reqs)

    # -- collectives (reuse the world algorithms verbatim) ----------------

    def barrier(self):
        from repro.mpi.collectives import barrier

        yield from barrier(self)

    def bcast(self, addr, datatype, count, root):
        from repro.mpi.collectives import bcast

        yield from bcast(self, addr, datatype, count, root)

    def allgather(self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount):
        from repro.mpi.collectives import allgather

        yield from allgather(
            self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount
        )

    def alltoall(self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount):
        from repro.mpi.collectives import alltoall

        yield from alltoall(
            self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount
        )

    def gather(
        self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount, root
    ):
        from repro.mpi.collectives import gather

        yield from gather(
            self, sendaddr, sendtype, sendcount, recvaddr, recvtype, recvcount, root
        )

    def reduce(self, sendaddr, recvaddr, count, np_dtype, op="sum", root=0):
        from repro.mpi.collectives import reduce

        yield from reduce(self, sendaddr, recvaddr, count, np_dtype, op, root)

    def allreduce(self, sendaddr, recvaddr, count, np_dtype, op="sum"):
        from repro.mpi.collectives import allreduce

        yield from allreduce(self, sendaddr, recvaddr, count, np_dtype, op)

    def __repr__(self):  # pragma: no cover
        return (
            f"<Communicator ctx_id={self.context_id} rank={self.rank}/"
            f"{self.nranks} world={self.members}>"
        )


def comm_split(ctx, color: int, key: int = 0):
    """Collective split of the world communicator (generator).

    Ranks passing the same ``color`` form a new communicator, ordered by
    ``(key, world rank)``.  ``color=None`` yields no communicator
    (MPI_UNDEFINED).
    """
    from repro.datatypes import LONG, contiguous

    ctx._comm_seq = ctx.__dict__.get("_comm_seq", 0) + 1
    context_id = ctx._comm_seq
    n = ctx.nranks
    adv = contiguous(3, LONG)
    send = ctx.alloc(24)
    color_code = -(1 << 40) if color is None else int(color)
    ctx.node.memory.view(send, 24).view(np.int64)[:] = [
        color_code, int(key), ctx.rank
    ]
    recv = ctx.alloc(24 * n)
    yield from ctx.allgather(send, adv, 1, recv, adv, 1)
    table = ctx.node.memory.view(recv, 24 * n).view(np.int64).reshape(n, 3)
    rows = [tuple(int(v) for v in row) for row in table]
    ctx.node.memory.free(send)
    ctx.node.memory.free(recv)
    if color is None:
        return None
    members = [
        wrank
        for c, _k, wrank in sorted(rows, key=lambda r: (r[1], r[2]))
        if c == color_code
    ]
    # distinct colors from the same split get distinct context ids so
    # same-tag traffic in sibling communicators cannot collide even in
    # principle
    colors_in_order = sorted({c for c, _k, _w in rows if c != -(1 << 40)})
    context_id = context_id * 1024 + colors_in_order.index(color_code)
    return Communicator(ctx, context_id, members)
