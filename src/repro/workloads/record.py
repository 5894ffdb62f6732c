"""Recorder: capture workload IR traces from live ``repro.mpi`` use.

:func:`record` runs ordinary rank programs (the ``examples/`` patterns)
against a real :class:`~repro.mpi.world.Cluster`, but hands each program
a :class:`RecordingContext` proxy instead of the raw
:class:`~repro.mpi.context.RankContext`.  The proxy forwards every call
to the live context *and* appends the equivalent IR op, so the finished
run yields a :class:`~repro.workloads.ir.Workload` that replays to the
same simulated schedule.

Every recorded call takes one path (:meth:`RecordingContext._record`):
sync the application's writes, locate the typed operands in recorded
buffers, name their datatypes, append the op, forward the call through
the op's own lowering (the one ``replay`` runs), then ``replay``'s step
(:func:`~repro.workloads.replay.land`: payloads and digest, both SHA-256),
absorb the landed zones into the shadow (large ranges hashed on the
call's own worker threads, as in ``replay``).  A proxy method only
translates live arguments into op fields; ``put`` also masks its
target's landing blocks, and ``win_create`` remembers the live window.

Application writes (NumPy stores between MPI calls) are captured by
shadow-memory diffing: before every recorded op, each buffer is diffed
against its shadow copy and changed spans become ``data`` ops.  Bytes
that the *network* will write — posted-receive landing blocks and
remote-put target blocks — are excluded from the diff until the
completing wait/fence, so a trace never bakes in scheme- or
timing-dependent delivered bytes: replaying the same trace under a
different scheme regenerates them through the protocol itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.datatypes.base import Datatype
from repro.mpi.world import Cluster
from repro.workloads import ir
from repro.workloads.ir import (
    Landings,
    Workload,
    WorkloadError,
    Zone,
    encode_data,
    encode_type,
    span,
)
from repro.workloads.replay import RankEnv, land, resolve, worker_pool

__all__ = ["RecordedRun", "Recorder", "RecordingContext", "UnsupportedOp",
           "record"]


class UnsupportedOp(WorkloadError):
    """The live program used API the workload IR cannot express."""


@dataclass
class RecordedRun:
    """A finished recording: the trace plus the live run's observables.

    ``digests``/``payloads``/``time_us`` describe the *recorded* run —
    the differential tests replay ``workload`` and compare against them.
    A payload is the 32-byte SHA-256 of a landing zone's wire bytes; a
    digest is SHA-256 over each buffer's name, a zero byte and the
    buffer's own SHA-256, in allocation order.
    """

    workload: Workload
    time_us: float
    digests: list
    payloads: list
    values: list


def _spans(offset: int, dt: Optional[Datatype], count: int) -> list:
    """``[start, end)`` byte spans of a zone: its datatype's blocks, or
    ``count`` raw bytes."""
    if dt is None:
        return [(offset, offset + count)]
    return [
        (offset + int(off), offset + int(off) + int(length))
        for off, length in dt.flatten(count).blocks()
    ]


class _RankState(RankEnv):
    """Per-rank recorder bookkeeping: the live names the ops' lowerings
    resolve (each type name maps to the datatype its latest call passed),
    the shadow memory, and the names given to live requests and windows."""

    def __init__(self, rank: int, nranks: int, memory, workers=None):
        super().__init__(memory, {}, workers)
        self.rank = rank
        self.ops: list[ir.Op] = []
        self.shadow: dict[str, np.ndarray] = {}
        self.excl: dict[str, np.ndarray] = {}
        #: live request / window id -> its name
        self.req_names: dict[int, str] = {}
        self.win_names: dict[int, str] = {}
        self.book = Landings(nranks)
        self.nreq = 0

    # -- buffer resolution -------------------------------------------------

    def new_buffer(self, base: int, size: int) -> str:
        name = f"b{len(self.views)}"
        self.alloc(name, base, size)
        self.shadow[name] = self.views[name].copy()
        self.excl[name] = np.zeros(size, dtype=bool)
        return name

    def locate(self, addr: int, lo: int, hi: int, what: str) -> tuple[str, int]:
        """(buffer name, offset) of the access spanning [addr+lo, addr+hi)."""
        for name, view in self.views.items():
            base, size = self.bases[name], len(view)
            if base <= addr < base + size:
                if addr + lo < base or addr + hi > base + size:
                    raise UnsupportedOp(
                        f"rank {self.rank}: {what} spans [{addr + lo}, "
                        f"{addr + hi}) beyond buffer {name!r} "
                        f"[{base}, {base + size})"
                    )
                return name, addr - base
        raise UnsupportedOp(
            f"rank {self.rank}: {what} at address {addr:#x} is not in any "
            "recorded buffer (allocate through the recording context)"
        )

    # -- shadow diffing ----------------------------------------------------

    def sync(self) -> None:
        """Emit ``data`` ops for app-written bytes since the last sync.

        Spans never cross an excluded byte (those belong to the network),
        but they do merge across *unchanged* non-excluded gaps — those
        bytes are application-deterministic, so re-writing them in the
        replay is a no-op.
        """
        for name, live in self.views.items():
            shadow = self.shadow[name]
            excl = self.excl[name]
            changed = live != shadow
            if excl.any():
                changed &= ~excl
            if not changed.any():
                continue
            idx = np.flatnonzero(changed)
            run_id = np.cumsum(excl)[idx]
            splits = np.flatnonzero(np.diff(run_id)) + 1
            for seg in np.split(idx, splits):
                s = int(seg[0])
                e = int(seg[-1]) + 1
                self.ops.append(
                    ir.Data(
                        buf=name,
                        offset=s,
                        zlib64=encode_data(live[s:e].tobytes()),
                    )
                )
                shadow[s:e] = live[s:e]

    def mask(
        self, name: str, offset: int, dt: Optional[Datatype], count: int
    ) -> None:
        """Hand a zone to the network: the diff skips it until resync."""
        excl = self.excl[name]
        for s, e in _spans(offset, dt, count):
            excl[s:e] = True

    def resync(self, zone: Zone) -> None:
        """Absorb network-delivered bytes into the shadow and unmask."""
        dt = None if zone.type is None else self.types[zone.type]
        live = self.views[zone.buf]
        shadow = self.shadow[zone.buf]
        excl = self.excl[zone.buf]
        for s, e in _spans(zone.offset, dt, zone.count):
            shadow[s:e] = live[s:e]
            excl[s:e] = False


class Recorder:
    """Accumulates per-rank op streams + the shared datatype table."""

    def __init__(self, workers=None):
        self.workers = workers
        self.states: dict[int, _RankState] = {}
        self.type_names: dict[tuple, str] = {}
        self.type_nodes: dict[str, dict] = {}
        self.digests: dict[int, list] = {}
        self.payloads: dict[int, dict] = {}

    def state_for(self, ctx) -> _RankState:
        state = self.states.get(ctx.rank)
        if state is None:
            state = _RankState(ctx.rank, ctx.nranks, ctx.node.memory,
                               self.workers)
            self.states[ctx.rank] = state
            self.digests[ctx.rank] = []
            self.payloads[ctx.rank] = {}
        return state

    def type_name(self, dt: Datatype) -> str:
        sig = dt.signature()
        name = self.type_names.get(sig)
        if name is None:
            name = f"t{len(self.type_names)}"
            self.type_names[sig] = name
            self.type_nodes[name] = encode_type(dt)
        return name

    def wrap(self, program: Callable) -> Callable:
        """A rank program factory that records through a proxy context."""

        def wrapped(ctx):
            return program(RecordingContext(self, ctx))

        return wrapped

    def build(self, name: str, scheme: str = "bc-spup") -> Workload:
        nranks = len(self.states)
        if sorted(self.states) != list(range(nranks)):
            raise WorkloadError(
                f"recorded ranks {sorted(self.states)} are not contiguous"
            )
        return Workload(
            name=name,
            nranks=nranks,
            ranks=tuple(
                tuple(self.states[r].ops) for r in range(nranks)
            ),
            types=dict(self.type_nodes),
            scheme=scheme,
        )


class RecordingContext:
    """RankContext proxy that appends IR ops as the program runs."""

    #: attributes forwarded untouched to the live context
    _PASSTHROUGH = ("rank", "nranks", "now", "node", "sim", "cm", "cluster")

    def __init__(self, recorder: Recorder, ctx):
        self._rec = recorder
        self._ctx = ctx
        self._state = recorder.state_for(ctx)

    def __getattr__(self, attr):
        if attr in self._PASSTHROUGH:
            return getattr(self._ctx, attr)
        raise UnsupportedOp(
            f"rank {self._ctx.rank}: RankContext.{attr} is not recordable "
            "into the workload IR"
        )

    # -- the common path ---------------------------------------------------

    def _record(self, cls: type[ir.Op], **fields):
        """Record one ``cls`` op, then run it on the live context through
        its own lowering.  ``fields`` are the op's fields as the live call
        has them: each typed access's ``buf`` an address (its ``offset`` is
        filled in here) and each datatype a live :class:`Datatype`; a
        request the op binds is named here."""
        state, rec = self._state, self._rec
        state.sync()
        if cls.REQUEST:
            fields[cls.REQUEST] = f"r{state.nreq}"
            state.nreq += 1
        for access in cls.ACCESSES:
            count = fields[access.count]
            if access.per_rank:
                count *= self._ctx.nranks
            lo, hi = span(fields[access.type], count)
            fields[access.buf], fields[access.offset] = state.locate(
                fields[access.buf], lo, hi, f"{cls.OP} {access.buf}"
            )
        for key, value in fields.items():
            if isinstance(value, Datatype):
                fields[key] = rec.type_name(value)
                state.types[fields[key]] = value
        op = cls(**fields)
        index = len(state.ops)
        state.ops.append(op)
        result = yield from op.lower(self._ctx, state)
        if op.REQUEST:
            state.req_names[id(result)] = getattr(op, op.REQUEST)
        rank = self._ctx.rank
        for _key, zone in land(
            state, op, index, state.book, rec.payloads[rank], rec.digests[rank]
        ):
            state.resync(zone)
        if op.REQUEST and op.LANDS:
            # a posted receive's bytes belong to the network until its wait
            zone = state.book.posted[op.landing_key(index)]
            state.mask(
                zone.buf, zone.offset, state.types[zone.type], zone.count
            )
        return result

    def _req_name(self, req, what: str) -> str:
        name = self._state.req_names.get(id(req))
        if name is None:
            raise UnsupportedOp(
                f"rank {self._ctx.rank}: {what} on a request the recorder "
                "did not issue"
            )
        return name

    def _win_name(self, win, what: str) -> str:
        name = self._state.win_names.get(id(win))
        if name is None:
            raise UnsupportedOp(
                f"rank {self._ctx.rank}: {what} on a window the recorder "
                "did not create"
            )
        return name

    # -- memory ------------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        self._state.sync()
        addr = self._ctx.alloc(nbytes, align)
        name = self._state.new_buffer(addr, nbytes)
        self._state.ops.append(ir.Alloc(buf=name, nbytes=nbytes, align=align))
        return addr

    def alloc_array(self, shape, dtype):
        self._state.sync()
        sa = self._ctx.alloc_array(shape, dtype)
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dt.itemsize, 1)
        name = self._state.new_buffer(sa.addr, nbytes)
        self._state.ops.append(
            ir.Alloc(buf=name, nbytes=nbytes, align=dt.itemsize or 1)
        )
        return sa

    # -- point-to-point ----------------------------------------------------

    def isend(self, addr, datatype, count, dest, tag):
        return self._record(
            ir.Isend, buf=addr, type=datatype, count=count, dest=dest, tag=tag
        )

    def irecv(self, addr, datatype, count, source, tag):
        return self._record(
            ir.Irecv, buf=addr, type=datatype, count=count, source=source,
            tag=tag,
        )

    def send(self, addr, datatype, count, dest, tag):
        return self._record(
            ir.Send, buf=addr, type=datatype, count=count, dest=dest, tag=tag
        )

    def recv(self, addr, datatype, count, source, tag):
        return self._record(
            ir.Recv, buf=addr, type=datatype, count=count, source=source,
            tag=tag,
        )

    def wait(self, req):
        return self._record(ir.Wait, req=self._req_name(req, "wait"))

    def waitall(self, reqs):
        names = tuple(self._req_name(req, "waitall") for req in reqs)
        return self._record(ir.Waitall, reqs=names)

    # -- collectives -------------------------------------------------------

    def barrier(self):
        return self._record(ir.Barrier)

    def alltoall(self, sendaddr, sendtype, sendcount,
                 recvaddr, recvtype, recvcount):
        return self._record(
            ir.Alltoall,
            sendbuf=sendaddr, sendtype=sendtype, sendcount=sendcount,
            recvbuf=recvaddr, recvtype=recvtype, recvcount=recvcount,
        )

    def bcast(self, addr, datatype, count, root):
        return self._record(
            ir.Bcast, buf=addr, type=datatype, count=count, root=root
        )

    def allgather(self, sendaddr, sendtype, sendcount,
                  recvaddr, recvtype, recvcount):
        return self._record(
            ir.Allgather,
            sendbuf=sendaddr, sendtype=sendtype, sendcount=sendcount,
            recvbuf=recvaddr, recvtype=recvtype, recvcount=recvcount,
        )

    # -- one-sided ---------------------------------------------------------

    def win_create(self, base, size):
        buf, offset = self._state.locate(base, 0, size, "win_create")
        name = f"w{len(self._state.book.windows)}"
        win = yield from self._record(
            ir.WinCreate, win=name, buf=buf, offset=offset, size=size
        )
        self._state.win_names[id(win)] = name
        return win

    def put(self, win, target_rank, origin_addr, origin_dt, origin_count=1,
            target_disp=0, target_dt=None, target_count=None):
        name = self._win_name(win, "put")
        # the target's landing blocks belong to the network until its
        # next fence — mask them on the *target* rank's shadow, before
        # the put can write them
        target_state = self._rec.states.get(target_rank)
        if target_state is not None:
            ordinal = list(self._state.book.windows).index(name)
            if ordinal >= len(target_state.book.windows):
                raise UnsupportedOp(
                    f"rank {self._ctx.rank}: put targets window "
                    f"#{ordinal} missing on rank {target_rank}"
                )
            twin = list(target_state.book.windows.values())[ordinal]
            target_state.mask(
                twin.buf, twin.offset + target_disp,
                target_dt if target_dt is not None else origin_dt,
                target_count if target_count is not None else origin_count,
            )
        return self._record(
            ir.Put, win=name, target=target_rank, buf=origin_addr,
            type=origin_dt, count=origin_count, target_disp=target_disp,
            target_type=target_dt, target_count=target_count,
        )

    def win_fence(self, win):
        return self._record(ir.Fence, win=self._win_name(win, "fence"))


def record(
    programs: Sequence[Callable] | Callable,
    *,
    name: str,
    nranks: int,
    scheme: str = "bc-spup",
) -> RecordedRun:
    """Run programs live, returning the captured trace + observables."""
    cluster = Cluster(nranks=nranks, scheme=scheme)
    if callable(programs):
        programs = [programs] * nranks
    with worker_pool() as pool:
        recorder = Recorder(pool)
        result = cluster.run([recorder.wrap(p) for p in programs])
        resolve(recorder.digests.values(), recorder.payloads.values())
    workload = recorder.build(name=name, scheme=scheme)
    return RecordedRun(
        workload=workload,
        time_us=result.time_us,
        digests=[recorder.digests[r] for r in range(nranks)],
        payloads=[recorder.payloads[r] for r in range(nranks)],
        values=result.values,
    )
