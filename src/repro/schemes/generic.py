"""The Generic scheme: MPICH-derived basic pack/unpack (Sections 3.1, 4.1).

The baseline every figure compares against.  For rendezvous messages:

* sender: obtain a dynamic pack buffer, pack the *whole* message, RDMA
  write it into the receiver's dynamic unpack buffer, notify;
* receiver: obtain a dynamic unpack buffer, advertise it, wait for all
  data, unpack the whole message.

Packing, communication and unpacking are fully serialized (the scheme's
defining flaw, Section 4.1), and two staging copies ride every message.

Buffer behaviour (Figure 2's two cases):

* ``fresh_buffers=False`` ("Datatype"): the staging buffer is persistent
  per rank — malloc/registration are paid once when it first grows to the
  needed size, modelling a warm malloc pool plus MVAPICH's pin-down cache
  hitting the same address every time.
* ``fresh_buffers=True`` ("DT + reg"): every operation allocates,
  registers, deregisters and frees its staging buffer — the paper's case
  where "different pack and unpack buffers are used in different datatype
  operations".

The eager path of this scheme stages small messages through a pack buffer
too (``eager_two_copy``), per Figure 1.
"""

from __future__ import annotations

from repro.datatypes.pack import pack_bytes, unpack_bytes
from repro.mpi.messages import RndvReply, SegArrival
from repro.schemes.base import DatatypeScheme, send_rndv_start, write_segment

__all__ = ["GenericScheme"]


class _StagePool:
    """Staging (pack or unpack) buffers with warm/fresh lifecycles.

    Warm mode models a hot malloc arena plus a pin-down cache that hits on
    address reuse: the first acquisition of a given size pays the full
    malloc (page faults) + registration; later acquisitions pop a free
    entry for the base malloc cost only.  Fresh mode tears everything down
    per operation.  A free-list (rather than one buffer) keeps concurrent
    operations — e.g. the 7 simultaneous sends of an alltoall — on
    distinct buffers.
    """

    def __init__(self):
        self._free: list[tuple[int, int, object]] = []  # (addr, size, mr)

    def acquire(self, node, nbytes: int, fresh: bool):
        """Generator returning an entry tuple (addr, size, mr)."""
        if fresh:
            addr = yield from node.malloc(nbytes)
            mr = yield from node.register(addr, nbytes)
            return (addr, nbytes, mr)
        for i, (addr, size, mr) in enumerate(self._free):
            if size >= nbytes:
                del self._free[i]
                # hot malloc: constant cost, no page faults, cached pin
                yield from node.cpu_work(node.cm.malloc_base, "malloc")
                return (addr, size, mr)
        addr = yield from node.malloc(nbytes)
        mr = yield from node.register(addr, nbytes)
        return (addr, nbytes, mr)

    def release(self, node, entry, fresh: bool):
        """Generator; only fresh buffers are torn down per operation."""
        addr, _size, mr = entry
        if fresh:
            yield from node.deregister(mr)
            yield from node.mfree(addr)
        else:
            yield from node.cpu_work(node.cm.free_base, "free")
            self._free.append(entry)


class GenericScheme(DatatypeScheme):
    name = "generic"
    OPTIONS = ("fresh_buffers",)
    eager_two_copy = True

    def __init__(self, ctx, fresh_buffers: bool = False):
        super().__init__(ctx)
        self.fresh_buffers = fresh_buffers
        self._pack_stage = _StagePool()
        self._unpack_stage = _StagePool()

    # -- sender -----------------------------------------------------------

    def sender(self, ctx, req):
        node = ctx.node
        cur = req.cursor
        nbytes = cur.total
        ctx.metrics.counter("scheme.segments", ctx.rank).inc()
        entry = yield from self._pack_stage.acquire(node, nbytes, self.fresh_buffers)
        addr, _size, mr = entry
        nblocks = pack_bytes(node.memory, req.addr, cur, 0, nbytes, addr)
        yield from ctx.charge_pack(nbytes, nblocks)
        start = yield from send_rndv_start(ctx, req, self.name)
        reply = yield from ctx.rndv_await_reply(req, start)
        assert isinstance(reply, RndvReply)
        done = yield from write_segment(
            ctx, req, reply.segments[0], 0, 0, nbytes, addr, mr.lkey, last=True
        )
        yield done
        yield from self._pack_stage.release(node, entry, self.fresh_buffers)

    # -- receiver ----------------------------------------------------------

    def receiver(self, ctx, rreq, start):
        node = ctx.node
        nbytes = start.nbytes
        entry = yield from self._unpack_stage.acquire(
            node, nbytes, self.fresh_buffers
        )
        addr, _size, mr = entry
        reply = RndvReply(msg_id=start.msg_id, segments=((addr, mr.rkey, nbytes),))
        yield from ctx.rndv_reply(start, reply)
        note = yield from ctx.msg_inbox(start.msg_id).take()
        assert isinstance(note, SegArrival) and note.last
        cur = rreq.cursor
        nblocks = unpack_bytes(node.memory, rreq.addr, cur, 0, nbytes, addr)
        yield from ctx.charge_pack(nbytes, nblocks, "unpack")
        yield from self._unpack_stage.release(node, entry, self.fresh_buffers)
