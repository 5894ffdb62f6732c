"""Interpreter: lower a workload IR program onto ``repro.mpi``.

:func:`replay` builds one rank program per IR rank, runs them on a
:class:`~repro.mpi.world.Cluster`, and returns a :class:`ReplayResult`
carrying the simulated run time plus a per-rank *digest timeline* — a
SHA-256 over every application buffer taken after each observation op
(wait/waitall/send/recv and every collective).  Two runs are
behaviourally identical iff their digest timelines and ``time_us``
match, which is exactly what the differential tests assert between a
recorded trace and the live program it was recorded from.

Scheme, eager-RDMA flag, and cost model can be overridden per replay so
one checked-in workload file sweeps all seven schemes and every
cost-model preset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.mpi.world import Cluster
from repro.workloads import ir
from repro.workloads.ir import Workload, WorkloadError
from repro.workloads.validate import validate

__all__ = ["ReplayResult", "digest_buffers", "fill_pattern", "pack_typed",
           "replay"]


def fill_pattern(nbytes: int, a: int, b: int, mod: int) -> np.ndarray:
    """The ``fill`` op's byte pattern: byte ``j`` is ``(a + b*j) % mod``."""
    return (
        (a + b * np.arange(nbytes, dtype=np.int64)) % mod
    ).astype(np.uint8)


def digest_buffers(views) -> str:
    """SHA-256 over named buffers: ``[(name, uint8-array), ...]`` in
    allocation order.  Shared by the interpreter and the recorder so
    their timelines are comparable byte-for-byte.  The hash reads each
    view in place: ``memory.view`` slices are C-contiguous, and the buffer
    protocol raises ``ValueError`` for one that is not rather than copy."""
    h = hashlib.sha256()
    for name, view in views:
        h.update(name.encode())
        h.update(b"\x00")
        h.update(view)
    return h.hexdigest()


@dataclass
class ReplayResult:
    """Outcome of one IR replay."""

    name: str
    scheme: str
    time_us: float
    #: per-rank list of (op_index, sha256-hex) at each observation op
    digests: list
    #: per-rank dict of payload bytes (recv requests by name, collective
    #: and fence landing zones by ``op<i>``); filled when
    #: ``collect_payloads=True``
    payloads: list = field(default_factory=list)
    values: list = field(default_factory=list)


def pack_typed(memory, addr: int, dt, count: int) -> bytes:
    """The packed wire bytes of ``(datatype, count)`` at ``addr``."""
    flat = dt.flatten(count)
    out = np.empty(flat.size, dtype=np.uint8)
    memory.copy_blocks(addr + flat.offsets, flat.lengths, out, gather=True)
    return out.tobytes()


def _make_program(
    workload: Workload,
    rank: int,
    types: dict,
    digests: list,
    payloads: list,
    collect_payloads: bool,
):
    ops = workload.ranks[rank]
    my_digests: list = digests[rank]
    my_payloads: dict = payloads[rank]

    def program(ctx):
        memory = ctx.node.memory
        buffers: dict[str, tuple[int, int]] = {}
        order: list[str] = []
        requests: dict[str, Any] = {}
        recv_regions: dict[str, tuple[int, Any, int]] = {}
        windows: dict[str, Any] = {}
        win_regions: dict[str, tuple[int, int]] = {}

        def observe(i: int) -> None:
            views = [
                (name, memory.view(buffers[name][0], buffers[name][1]))
                for name in order
            ]
            my_digests.append((i, digest_buffers(views)))

        def grab(key: str, addr: int, dt, count: int) -> None:
            if collect_payloads:
                my_payloads[key] = pack_typed(memory, addr, dt, count)

        for i, op in enumerate(ops):
            if isinstance(op, ir.Alloc):
                addr = ctx.alloc(op.nbytes, op.align)
                buffers[op.buf] = (addr, op.nbytes)
                order.append(op.buf)
                memory.view(addr, op.nbytes)[:] = 0
            elif isinstance(op, ir.Fill):
                addr = buffers[op.buf][0] + op.offset
                memory.view(addr, op.nbytes)[:] = fill_pattern(
                    op.nbytes, op.a, op.b, op.mod
                )
            elif isinstance(op, ir.Data):
                raw = op.decoded()
                addr = buffers[op.buf][0] + op.offset
                memory.view(addr, len(raw))[:] = np.frombuffer(
                    raw, dtype=np.uint8
                )
            elif isinstance(op, ir.Isend):
                addr = buffers[op.buf][0] + op.offset
                req = yield from ctx.isend(
                    addr, types[op.type], op.count, op.dest, op.tag
                )
                requests[op.req] = req
            elif isinstance(op, ir.Irecv):
                addr = buffers[op.buf][0] + op.offset
                dt = types[op.type]
                req = yield from ctx.irecv(
                    addr, dt, op.count, op.source, op.tag
                )
                requests[op.req] = req
                recv_regions[op.req] = (addr, dt, op.count)
            elif isinstance(op, ir.Send):
                addr = buffers[op.buf][0] + op.offset
                yield from ctx.send(
                    addr, types[op.type], op.count, op.dest, op.tag
                )
                observe(i)
            elif isinstance(op, ir.Recv):
                addr = buffers[op.buf][0] + op.offset
                dt = types[op.type]
                yield from ctx.recv(addr, dt, op.count, op.source, op.tag)
                grab(f"op{i}", addr, dt, op.count)
                observe(i)
            elif isinstance(op, ir.Wait):
                yield from ctx.wait(requests[op.req])
                if op.req in recv_regions:
                    grab(op.req, *recv_regions[op.req])
                observe(i)
            elif isinstance(op, ir.Waitall):
                yield from ctx.waitall([requests[r] for r in op.reqs])
                for r in op.reqs:
                    if r in recv_regions:
                        grab(r, *recv_regions[r])
                observe(i)
            elif isinstance(op, ir.Barrier):
                yield from ctx.barrier()
                observe(i)
            elif isinstance(op, ir.Alltoall):
                saddr = buffers[op.sendbuf][0] + op.sendoffset
                raddr = buffers[op.recvbuf][0] + op.recvoffset
                rdt = types[op.recvtype]
                yield from ctx.alltoall(
                    saddr, types[op.sendtype], op.sendcount,
                    raddr, rdt, op.recvcount,
                )
                grab(f"op{i}", raddr, rdt, op.recvcount * workload.nranks)
                observe(i)
            elif isinstance(op, ir.Bcast):
                addr = buffers[op.buf][0] + op.offset
                dt = types[op.type]
                yield from ctx.bcast(addr, dt, op.count, op.root)
                grab(f"op{i}", addr, dt, op.count)
                observe(i)
            elif isinstance(op, ir.Allgather):
                saddr = buffers[op.sendbuf][0] + op.sendoffset
                raddr = buffers[op.recvbuf][0] + op.recvoffset
                rdt = types[op.recvtype]
                yield from ctx.allgather(
                    saddr, types[op.sendtype], op.sendcount,
                    raddr, rdt, op.recvcount,
                )
                grab(f"op{i}", raddr, rdt, op.recvcount * workload.nranks)
                observe(i)
            elif isinstance(op, ir.WinCreate):
                addr = buffers[op.buf][0] + op.offset
                win = yield from ctx.win_create(addr, op.size)
                windows[op.win] = win
                win_regions[op.win] = (addr, op.size)
            elif isinstance(op, ir.Put):
                addr = buffers[op.buf][0] + op.offset
                tdt = (
                    types[op.target_type]
                    if op.target_type is not None
                    else None
                )
                yield from ctx.put(
                    windows[op.win], op.target, addr, types[op.type],
                    op.count, op.target_disp, tdt, op.target_count,
                )
            elif isinstance(op, ir.Fence):
                yield from ctx.win_fence(windows[op.win])
                waddr, wsize = win_regions[op.win]
                if collect_payloads:
                    my_payloads[f"op{i}"] = memory.view(
                        waddr, wsize
                    ).tobytes()
                observe(i)
            else:  # pragma: no cover - validate() rejects unknown ops
                raise WorkloadError(f"rank {rank} op {i}: unsupported op")
        return len(ops)

    return program


def replay(
    workload: Workload,
    *,
    scheme: Optional[str] = None,
    eager_rdma: Optional[bool] = None,
    cost_model: Optional[Any] = None,
    collect_payloads: bool = False,
    check: bool = True,
) -> ReplayResult:
    """Run a workload and return its digest timeline + simulated time.

    ``scheme``/``eager_rdma``/``cost_model`` override the workload's own
    run parameters (sweeps replay one file under many configurations).
    ``check=False`` skips semantic validation for already-trusted inputs.
    """
    if check:
        validate(workload)
    use_scheme = scheme if scheme is not None else workload.scheme
    use_eager = (
        eager_rdma if eager_rdma is not None else workload.eager_rdma
    )
    types = workload.built_types()
    digests: list = [[] for _ in range(workload.nranks)]
    payloads: list = [{} for _ in range(workload.nranks)]
    cluster = Cluster(
        nranks=workload.nranks,
        scheme=use_scheme,
        eager_rdma=use_eager,
        cost_model=cost_model,
    )
    programs = [
        _make_program(
            workload, rank, types, digests, payloads, collect_payloads
        )
        for rank in range(workload.nranks)
    ]
    result = cluster.run(programs)
    return ReplayResult(
        name=workload.name,
        scheme=use_scheme,
        time_us=result.time_us,
        digests=digests,
        payloads=payloads,
        values=result.values,
    )
