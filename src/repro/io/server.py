"""The storage server: files as registered regions, a tiny control
protocol, and no CPU on the data path.

Files live in one large registered region of the server's address space
(the PVFS-style data store).  Because clients move data with one-sided
RDMA — write-gather in, read-scatter out — the server's CPU only touches
``open`` and ``commit`` control messages; the server HCA serves all data
traffic.  That asymmetry is the design point of [33] this subpackage
reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ib.verbs import Opcode, RecvWR, SendWR
from repro.simulator import SimulationError

__all__ = ["FileHandle", "FileServer"]

#: control descriptors pre-posted per client connection
_CTRL_DEPTH = 1024


@dataclass(frozen=True)
class FileHandle:
    """Client-side handle: where a file lives on the server."""

    name: str
    addr: int
    size: int
    rkey: int


@dataclass(frozen=True)
class _OpenReq:
    client: int
    name: str
    size: int
    req_id: int


@dataclass(frozen=True)
class _OpenReply:
    req_id: int
    addr: int
    size: int
    rkey: int


@dataclass(frozen=True)
class _Commit:
    client: int
    name: str
    nbytes: int
    req_id: int


@dataclass(frozen=True)
class _CommitAck:
    req_id: int


class FileServer:
    """A storage node.  Construct via :class:`~repro.io.cluster.StorageCluster`."""

    def __init__(self, node, store_capacity: int):
        self.node = node
        self.sim = node.sim
        self.cm = node.cm
        base = node.memory.alloc(store_capacity, align=node.cm.page_size)
        #: the whole store is registered once at startup (PVFS pins its
        #: buffer pool the same way)
        self.store_mr = node.memory.register(base, store_capacity)
        self._base = base
        self._next = base
        self._end = base + store_capacity
        self._files: dict[str, FileHandle] = {}
        self._qps: dict[int, object] = {}
        #: commit log for tests: (client, name, nbytes)
        self.commits: list[tuple[int, str, int]] = []

    # -- wiring (done by StorageCluster at setup time) ---------------------

    def attach_client(self, client_id: int, qp) -> None:
        self._qps[client_id] = qp
        wr = RecvWR(wr_id=("srv-ctrl", client_id))
        qp.post_recv_nocost(wr, _CTRL_DEPTH)
        self.sim.process(self._serve(client_id, qp, wr), name=f"fsrv-c{client_id}")

    # -- file namespace -----------------------------------------------------

    def _create(self, name: str, size: int) -> FileHandle:
        fh = self._files.get(name)
        if fh is not None:
            if fh.size < size:
                raise SimulationError(
                    f"file {name!r} exists with smaller size {fh.size}"
                )
            return fh
        addr = (self._next + 63) // 64 * 64
        if addr + size > self._end:
            raise SimulationError("file store exhausted")
        self._next = addr + size
        fh = FileHandle(name, addr, size, self.store_mr.rkey)
        self._files[name] = fh
        return fh

    def file_view(self, name: str):
        """Server-side bytes of a file (for tests and local tooling)."""
        fh = self._files[name]
        return self.node.memory.view(fh.addr, fh.size)

    # -- control protocol ----------------------------------------------------

    def _serve(self, client_id: int, qp, wr):
        while True:
            cqe = yield from qp.recv_cq.take()
            qp.post_recv_nocost(wr)
            yield from self.node.cpu_work(self.cm.control_overhead, "fsrv")
            msg = cqe.payload
            if isinstance(msg, _OpenReq):
                fh = self._create(msg.name, msg.size)
                yield from qp.post_send(
                    SendWR(
                        Opcode.SEND,
                        payload=_OpenReply(msg.req_id, fh.addr, fh.size, fh.rkey),
                        extra_bytes=64,
                        signaled=False,
                    )
                )
            elif isinstance(msg, _Commit):
                self.commits.append((msg.client, msg.name, msg.nbytes))
                yield from qp.post_send(
                    SendWR(
                        Opcode.SEND,
                        payload=_CommitAck(msg.req_id),
                        extra_bytes=64,
                        signaled=False,
                    )
                )
            else:  # pragma: no cover
                raise SimulationError(f"file server: bad request {msg!r}")
