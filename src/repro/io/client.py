"""The I/O client: noncontiguous file access strategies.

Write path (client memory noncontiguous, file contiguous):

* ``"rdma"`` — register the user blocks (OGR through the client's
  pin-down cache) and **RDMA-write-gather** them straight into the file
  region, up to 64 blocks per descriptor.  Zero copy; this is the [33]
  design the paper's Section 9 contrasts itself with.
* ``"pack"`` — list-I/O baseline: pack into a bounce buffer, one
  contiguous RDMA write, i.e. one extra copy.

Read path mirrors it: ``"rdma"`` **RDMA-read-scatters** the contiguous
file region directly into the user blocks; ``"pack"`` reads into a bounce
buffer and unpacks.

Both paths finish with a commit/ack round trip to the server, which is
the only part of an operation that touches the server CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes import Datatype, SegmentCursor
from repro.datatypes.pack import pack_bytes, unpack_bytes
from repro.ib.verbs import MAX_SGE, Opcode, RecvWR, SGE, SendWR
from repro.io.server import FileHandle, _Commit, _CommitAck, _OpenReply, _OpenReq
from repro.registration import RegistrationCache
from repro.schemes.base import RegisteredUserBuffer, charge_dtproc, sge_lists
from repro.simulator import SimulationError, Store

__all__ = ["IOClient"]

_CTRL_DEPTH = 1024
#: wr-id tag of the data-moving opcodes ("wp" / "rp" through the bounce)
_WR_TAG = {Opcode.RDMA_WRITE: "w", Opcode.RDMA_READ: "r"}


@dataclass
class StripedHandle:
    """Client handle on a file striped round-robin over the servers.

    Server ``k`` stores stripes ``k, k+n, k+2n, ...`` back-to-back in its
    local extent — the classic PVFS layout.
    """

    name: str
    size: int
    stripe_size: int
    #: server_id -> FileHandle for that server's local extent
    parts: dict

    @property
    def nservers(self) -> int:
        return len(self.parts)

    def locate(self, offset: int) -> tuple[int, int]:
        """(server_id, server-local byte offset) of a global offset."""
        stripe = offset // self.stripe_size
        server = stripe % self.nservers
        local = (stripe // self.nservers) * self.stripe_size + (
            offset % self.stripe_size
        )
        return server, local


class IOClient:
    """One client node's connections to the storage servers.  It carries
    the ``node`` / ``cm`` / ``reg_cache`` the rendezvous toolkit in
    :mod:`repro.schemes.base` asks of a context, so registration and the
    datatype-processing charge are that toolkit's."""

    def __init__(self, node, client_id: int, reg_cache_bytes: int,
                 stripe_size: int = 64 * 1024):
        self.node = node
        self.sim = node.sim
        self.cm = node.cm
        self.client_id = client_id
        self.stripe_size = stripe_size
        self.reg_cache = RegistrationCache(node, reg_cache_bytes)
        self._req_seq = 0
        self._replies: Store = Store(self.sim)
        #: wr_id -> completion event of every signaled WR in flight
        self._send_events: dict = {}
        self._qps: dict[int, object] = {}
        self._bounce_addr = 0
        self._bounce_size = 0
        self._bounce_mr = None
        #: statistics
        self.bytes_written = 0
        self.bytes_read = 0

    def attach(self, qp, server_id: int = 0) -> None:
        self._qps[server_id] = qp
        wr = RecvWR(wr_id=("cli-ctrl", self.client_id))
        qp.post_recv_nocost(wr, _CTRL_DEPTH)
        self.sim.process(self._pump(qp, wr), name=f"fcli{self.client_id}s{server_id}")
        self.sim.process(self._send_dispatcher(qp), name=f"fio-cqe{self.client_id}")

    @property
    def _qp(self):
        """The first server's QP (single-server convenience)."""
        return self._qps[0]

    def _pump(self, qp, wr):
        while True:
            cqe = yield from qp.recv_cq.take()
            qp.post_recv_nocost(wr)
            self._replies.put(cqe.payload)

    def _send_dispatcher(self, qp):
        """Drain ``qp``'s send CQ, resolving each CQE's event by ``wr_id``."""
        while True:
            cqe = yield from qp.send_cq.take()
            self._send_events.pop(cqe.wr_id).succeed(cqe)

    # -- public API -------------------------------------------------------

    def open(self, name: str, size: int):
        """Open (creating if needed) a striped file; generator returning
        a :class:`StripedHandle`.

        Each server allocates a local extent holding its round-robin
        share of the stripes.
        """
        nserv = len(self._qps)
        nstripes = max(1, -(-size // self.stripe_size))
        pending = {}
        for sid in sorted(self._qps):
            cnt = len(range(sid, nstripes, nserv))
            local_size = max(cnt * self.stripe_size, 1)
            self._req_seq += 1
            req_id = self._req_seq
            pending[req_id] = sid
            yield from self.node.cpu_work(self.cm.control_overhead, "fio")
            yield from self._qps[sid].post_send(
                SendWR(
                    Opcode.SEND,
                    payload=_OpenReq(self.client_id, name, local_size, req_id),
                    extra_bytes=64,
                    signaled=False,
                )
            )
        parts = {}
        while pending:
            reply = yield from self._replies.take()
            assert isinstance(reply, _OpenReply)
            sid = pending.pop(reply.req_id)
            parts[sid] = FileHandle(name, reply.addr, reply.size, reply.rkey)
        return StripedHandle(name, size, self.stripe_size, parts)

    def write(
        self,
        fh: FileHandle,
        file_offset: int,
        addr: int,
        datatype: Datatype,
        count: int = 1,
        strategy: str = "rdma",
    ):
        """Write (datatype, count) at ``addr`` to the file (generator
        returning bytes written)."""
        cur = SegmentCursor(datatype, count)
        nbytes = cur.total
        self._check_extent(fh, file_offset, nbytes)
        if strategy == "rdma":
            yield from self._rdma_direct(Opcode.RDMA_WRITE, fh, file_offset, addr, cur)
        elif strategy == "pack":
            yield from self._write_pack(fh, file_offset, addr, cur)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        yield from self._commit(fh, nbytes)
        self.bytes_written += nbytes
        return nbytes

    def read(
        self,
        fh: FileHandle,
        file_offset: int,
        addr: int,
        datatype: Datatype,
        count: int = 1,
        strategy: str = "rdma",
    ):
        """Read from the file into (datatype, count) at ``addr``
        (generator returning bytes read)."""
        cur = SegmentCursor(datatype, count)
        nbytes = cur.total
        self._check_extent(fh, file_offset, nbytes)
        if strategy == "rdma":
            yield from self._rdma_direct(Opcode.RDMA_READ, fh, file_offset, addr, cur)
        elif strategy == "pack":
            yield from self._read_pack(fh, file_offset, addr, cur)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.bytes_read += nbytes
        return nbytes

    def write_view(
        self,
        fh: StripedHandle,
        file_offset: int,
        addr: int,
        datatype: Datatype,
        count: int = 1,
        *,
        file_dt: Datatype,
        strategy: str = "rdma",
    ):
        """Write through a noncontiguous *file view* (generator).

        The memory stream of (datatype, count) lands in the data blocks
        of ``file_dt``, tiled from ``file_offset`` — MPI_File_set_view
        semantics, the structured access of Ching et al. [6].  With
        ``"rdma"`` each refined (memory piece -> file piece) goes as one
        zero-copy RDMA write; with ``"pack"`` (list I/O) the client packs
        first and writes contiguous bounce slices per file block.
        """
        cur = SegmentCursor(datatype, count)
        nbytes = cur.total
        if strategy == "rdma":
            pieces = self._view_pieces(
                fh, file_offset, cur, nbytes, file_dt, packed=False
            )
            reg = yield from RegisteredUserBuffer.acquire(self, addr, cur.flat)
            yield from self._issue_view_ops(fh, pieces, Opcode.RDMA_WRITE,
                                            addr, reg, bounce=None)
            yield from reg.release(self)
        elif strategy == "pack":
            pieces = self._view_pieces(
                fh, file_offset, cur, nbytes, file_dt, packed=True
            )
            bounce = yield from self._bounce(nbytes)
            nblocks = pack_bytes(self.node.memory, addr, cur, 0, nbytes, bounce)
            yield from self.node.copy_work(nbytes, nblocks, "fio-pack")
            yield from self._issue_view_ops(fh, pieces, Opcode.RDMA_WRITE,
                                            addr, None, bounce=bounce)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        yield from self._commit(fh, nbytes)
        self.bytes_written += nbytes
        return nbytes

    def read_view(
        self,
        fh: StripedHandle,
        file_offset: int,
        addr: int,
        datatype: Datatype,
        count: int = 1,
        *,
        file_dt: Datatype,
        strategy: str = "rdma",
    ):
        """Read through a noncontiguous file view (generator); mirror of
        :meth:`write_view`."""
        cur = SegmentCursor(datatype, count)
        nbytes = cur.total
        if strategy == "rdma":
            pieces = self._view_pieces(
                fh, file_offset, cur, nbytes, file_dt, packed=False
            )
            reg = yield from RegisteredUserBuffer.acquire(self, addr, cur.flat)
            yield from self._issue_view_ops(fh, pieces, Opcode.RDMA_READ,
                                            addr, reg, bounce=None)
            yield from reg.release(self)
        elif strategy == "pack":
            pieces = self._view_pieces(
                fh, file_offset, cur, nbytes, file_dt, packed=True
            )
            bounce = yield from self._bounce(nbytes)
            yield from self._issue_view_ops(fh, pieces, Opcode.RDMA_READ,
                                            addr, None, bounce=bounce)
            nblocks = unpack_bytes(self.node.memory, addr, cur, 0, nbytes, bounce)
            yield from self.node.copy_work(nbytes, nblocks, "fio-unpack")
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.bytes_read += nbytes
        return nbytes

    def _view_pieces(self, fh, file_offset, cur, nbytes, file_dt, packed: bool):
        """Refine the memory side against the tiled file view:
        (mem_off, file_off, len) pieces.

        ``packed=True`` expresses the memory side in packed-stream
        offsets (for bounce-buffer I/O); otherwise in memory-layout
        offsets relative to the user buffer.
        """
        from repro.schemes.multiw import refine

        if file_dt.size <= 0:
            raise ValueError("file view datatype carries no data")
        tiles = -(-nbytes // file_dt.size)
        file_flat = file_dt.flatten(tiles)
        # clip the file block list to exactly nbytes of data
        blocks, used = [], 0
        for off, ln in file_flat.blocks():
            take = min(ln, nbytes - used)
            blocks.append((off, take))
            used += take
            if used >= nbytes:
                break
        from repro.datatypes.flatten import Flattened

        clipped = Flattened.from_blocks(blocks)
        end = file_offset + int(clipped.offsets[-1] + clipped.lengths[-1])
        if end > fh.size:
            raise SimulationError(
                f"file view extends to {end}, beyond file size {fh.size}"
            )
        if packed:
            mem_side = Flattened.from_blocks([(0, nbytes)])
        else:
            mem_side = cur.flat
        return refine(mem_side, 0, clipped, file_offset)

    def _issue_view_ops(self, fh, pieces, opcode, addr, reg, bounce):
        """Issue one RDMA op per refined piece, split at stripe borders."""
        yield from charge_dtproc(self, len(pieces[0]))
        completions = []
        for mem_off, file_off, ln in zip(*(a.tolist() for a in pieces)):
            pos = 0
            while pos < ln:
                goff = file_off + pos
                server, local = fh.locate(goff)
                stripe_left = fh.stripe_size - (goff % fh.stripe_size)
                take = min(ln - pos, stripe_left)
                if bounce is not None:
                    sge = SGE(bounce + mem_off + pos, take, self._bounce_mr.lkey)
                else:
                    local_addr = addr + mem_off + pos
                    sge = SGE(local_addr, take, reg.lkey_for(local_addr, take))
                done = yield from self._post(
                    opcode, [sge], fh, server, local,
                    (self.client_id, "view", len(completions)),
                )
                completions.append(done)
                pos += take
        yield self.sim.all_of(completions)

    # -- strategies ----------------------------------------------------------

    def _stripe_chunks(self, fh: StripedHandle, file_offset: int, total: int):
        """Split the packed-byte range [0, total) into per-stripe chunks:
        (packed_lo, packed_hi, server_id, server_local_offset)."""
        chunks = []
        pos = 0
        while pos < total:
            goff = file_offset + pos
            stripe_end = (goff // fh.stripe_size + 1) * fh.stripe_size
            hi = min(total, pos + (stripe_end - goff))
            server, local = fh.locate(goff)
            chunks.append((pos, hi, server, local))
            pos = hi
        return chunks

    def _rdma_direct(self, opcode, fh, file_offset, addr, cur):
        """Zero-copy strategy: register the user blocks, then one
        ``opcode`` (RDMA write or read) per <= MAX_SGE gather/scatter
        entries of each stripe chunk."""
        yield from charge_dtproc(self, cur.flat.nblocks)
        reg = yield from RegisteredUserBuffer.acquire(self, addr, cur.flat)
        completions = []
        for lo, hi, server, local in self._stripe_chunks(fh, file_offset, cur.total):
            for k, sges in enumerate(sge_lists(addr, cur, lo, hi, reg)):
                done = yield from self._post(
                    opcode, sges, fh, server, local,
                    (self.client_id, _WR_TAG[opcode], lo, k * MAX_SGE),
                )
                completions.append(done)
                local += sges.nbytes
        yield self.sim.all_of(completions)
        yield from reg.release(self)

    def _rdma_bounce(self, opcode, fh, file_offset, total, bounce):
        """One ``opcode`` per stripe chunk between the packed bounce
        buffer and the file."""
        completions = []
        for lo, hi, server, local in self._stripe_chunks(fh, file_offset, total):
            done = yield from self._post(
                opcode, [SGE(bounce + lo, hi - lo, self._bounce_mr.lkey)],
                fh, server, local,
                (self.client_id, _WR_TAG[opcode] + "p", lo),
            )
            completions.append(done)
        yield self.sim.all_of(completions)

    def _write_pack(self, fh, file_offset, addr, cur):
        bounce = yield from self._bounce(cur.total)
        nblocks = pack_bytes(self.node.memory, addr, cur, 0, cur.total, bounce)
        yield from self.node.copy_work(cur.total, nblocks, "fio-pack")
        yield from self._rdma_bounce(
            Opcode.RDMA_WRITE, fh, file_offset, cur.total, bounce
        )

    def _read_pack(self, fh, file_offset, addr, cur):
        bounce = yield from self._bounce(cur.total)
        yield from self._rdma_bounce(
            Opcode.RDMA_READ, fh, file_offset, cur.total, bounce
        )
        nblocks = unpack_bytes(self.node.memory, addr, cur, 0, cur.total, bounce)
        yield from self.node.copy_work(cur.total, nblocks, "fio-unpack")

    # -- plumbing ---------------------------------------------------------

    def _commit(self, fh, nbytes):
        """Commit to every server holding a part of the file."""
        expected = set()
        for sid in sorted(fh.parts):
            self._req_seq += 1
            req_id = self._req_seq
            expected.add(req_id)
            yield from self.node.cpu_work(self.cm.control_overhead, "fio")
            yield from self._qps[sid].post_send(
                SendWR(
                    Opcode.SEND,
                    payload=_Commit(self.client_id, fh.name, nbytes, req_id),
                    extra_bytes=64,
                    signaled=False,
                )
            )
        while expected:
            ack = yield from self._replies.take()
            assert isinstance(ack, _CommitAck)
            expected.discard(ack.req_id)

    def _post(self, opcode, sges, fh, server, local, wr_id):
        """Post one signaled RDMA op between ``sges`` and byte ``local``
        of ``server``'s extent of ``fh`` (generator returning the
        completion event the send-CQ dispatcher resolves)."""
        part = fh.parts[server]
        done = self._send_events[wr_id] = self.sim.event()
        yield from self._qps[server].post_send(
            SendWR(
                opcode,
                sges=sges,
                remote_addr=part.addr + local,
                rkey=part.rkey,
                wr_id=wr_id,
            )
        )
        return done

    def _bounce(self, nbytes):
        """Persistent registered bounce buffer, grown on demand."""
        if self._bounce_size < nbytes:
            if self._bounce_mr is not None:
                yield from self.node.deregister(self._bounce_mr)
                yield from self.node.mfree(self._bounce_addr)
            self._bounce_addr = yield from self.node.malloc(nbytes)
            self._bounce_mr = yield from self.node.register(self._bounce_addr, nbytes)
            self._bounce_size = nbytes
        return self._bounce_addr

    @staticmethod
    def _check_extent(fh, offset, nbytes):
        if offset < 0 or offset + nbytes > fh.size:
            raise SimulationError(
                f"I/O beyond file {fh.name!r}: offset {offset} + {nbytes} "
                f"> size {fh.size}"
            )
