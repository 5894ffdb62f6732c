"""MPI-2 one-sided communication (RMA) over the simulated verbs.

The paper's datatype-cache mechanism (Section 5.4.2) was originally
proposed by Träff et al. [14] "in the context of performing MPI-2
one-sided communication" — this module closes that loop by implementing
windows, put, get and fence on the same substrate.

One-sided semantics map directly onto the verbs:

* :func:`win_create` — collective; every rank registers its window region
  and allgathers the (base, rkey) advertisement.
* :func:`put` — the *origin* specifies both its own and the target's
  datatype (MPI RMA semantics: the target datatype is interpreted against
  the window base, no target CPU involved).  The origin computes the
  common refinement and issues one RDMA write per piece — exactly the
  Multi-W machinery, minus the handshake, because the layout is known
  locally.
* :func:`get` — the mirror: one RDMA read per refined piece.
* :func:`fence` — completes all locally-issued operations, then runs a
  barrier; reliable-connection ordering makes remotely-written data
  visible before the barrier messages that follow it on the same HCA.
* :func:`lock` / :func:`unlock` — passive-target exclusive/shared locks
  served by the target's progress engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.datatypes import Datatype, SegmentCursor
from repro.ib.verbs import Opcode, SGE, SendWR
from repro.schemes.base import RegisteredUserBuffer, charge_dtproc, piece_writes
from repro.schemes.multiw import refine

__all__ = ["Window", "fence", "get", "lock", "put", "unlock", "win_create"]


@dataclass
class Window:
    """One rank's handle on a created RMA window."""

    ctx: object
    win_id: int
    base: int  # local window base address
    size: int
    mr: object  # local registration
    #: per-rank remote advertisement: rank -> (base, size, rkey)
    remote: dict = field(default_factory=dict)
    #: completion events of operations issued since the last fence
    _pending: list = field(default_factory=list)


def win_create(ctx, base: int, size: int):
    """Collective window creation (generator returning a Window).

    Registers [base, base+size) locally (charged) and exchanges the
    advertisement with every rank via an allgather of control-sized eager
    messages.  The window id is the per-rank creation ordinal — creation
    is collective, so every rank derives the same id for the same window.
    """
    count = ctx.__dict__.get("_rma_win_count", 0) + 1
    ctx._rma_win_count = count
    win_id = count
    mr = yield from ctx.node.register(base, max(size, 1))
    win = Window(ctx=ctx, win_id=win_id, base=base, size=size, mr=mr)
    # allgather the advertisements through 16-byte eager messages
    from repro.datatypes import contiguous, LONG

    n = ctx.nranks
    adv_dt = contiguous(3, LONG)
    send = ctx.alloc(24)
    ctx.node.memory.view(send, 24).view(np.int64)[:] = [base, size, mr.rkey]
    recv = ctx.alloc(24 * n)
    yield from ctx.allgather(send, adv_dt, 1, recv, adv_dt, 1)
    table = ctx.node.memory.view(recv, 24 * n).view(np.int64).reshape(n, 3)
    for r in range(n):
        win.remote[r] = (int(table[r, 0]), int(table[r, 1]), int(table[r, 2]))
    ctx.node.memory.free(send)
    ctx.node.memory.free(recv)
    return win


def _check_target(win: Window, rank: int, flat, target_disp: int) -> tuple[int, int]:
    tbase, tsize, trkey = win.remote[rank]
    if flat.nblocks:
        end = int(flat.offsets[-1] + flat.lengths[-1])
        if target_disp < 0 or target_disp + end > tsize:
            raise ValueError(
                f"RMA access [{target_disp}, {target_disp + end}) outside "
                f"window of size {tsize} at rank {rank}"
            )
    return tbase + target_disp, trkey


def put(
    ctx,
    win: Window,
    target_rank: int,
    origin_addr: int,
    origin_dt: Datatype,
    origin_count: int = 1,
    target_disp: int = 0,
    target_dt: Optional[Datatype] = None,
    target_count: Optional[int] = None,
):
    """One-sided put (generator).  Completes locally at the next fence."""
    target_dt = target_dt or origin_dt
    target_count = target_count if target_count is not None else origin_count
    origin_flat = SegmentCursor(origin_dt, origin_count).flat
    target_flat = SegmentCursor(target_dt, target_count).flat
    tbase, trkey = _check_target(win, target_rank, target_flat, target_disp)
    if target_rank == ctx.rank:
        # local put: a straight refinement copy, charged at copy rate
        pieces = refine(origin_flat, origin_addr, target_flat, tbase)
        for src, dst, ln in zip(*(a.tolist() for a in pieces)):
            ctx.node.memory.view(dst, ln)[:] = ctx.node.memory.view(src, ln)
        yield from ctx.node.copy_work(origin_flat.size, len(pieces[0]), "rma-local")
        return
    reg = yield from RegisteredUserBuffer.acquire(ctx, origin_addr, origin_flat)
    pieces = refine(origin_flat, origin_addr, target_flat, tbase)
    npieces = len(pieces[0])
    yield from charge_dtproc(ctx, npieces)
    # the Multi-W write list; the whole window is one region, and the
    # last write's completion stands for the put at the next fence
    wrs = piece_writes(ctx, pieces, reg, np.full(npieces, trkey, dtype=np.int64))
    wrs.last.signaled = True
    done = ctx.send_completion(wrs.last.wr_id)
    yield from ctx.ctrl_qps[target_rank].post_send_list(wrs)
    win._pending.append((done, reg))


def get(
    ctx,
    win: Window,
    target_rank: int,
    origin_addr: int,
    origin_dt: Datatype,
    origin_count: int = 1,
    target_disp: int = 0,
    target_dt: Optional[Datatype] = None,
    target_count: Optional[int] = None,
):
    """One-sided get (generator).  Data is usable after the next fence."""
    target_dt = target_dt or origin_dt
    target_count = target_count if target_count is not None else origin_count
    origin_flat = SegmentCursor(origin_dt, origin_count).flat
    target_flat = SegmentCursor(target_dt, target_count).flat
    tbase, trkey = _check_target(win, target_rank, target_flat, target_disp)
    if target_rank == ctx.rank:
        pieces = refine(target_flat, tbase, origin_flat, origin_addr)
        for src, dst, ln in zip(*(a.tolist() for a in pieces)):
            ctx.node.memory.view(dst, ln)[:] = ctx.node.memory.view(src, ln)
        yield from ctx.node.copy_work(origin_flat.size, len(pieces[0]), "rma-local")
        return
    reg = yield from RegisteredUserBuffer.acquire(ctx, origin_addr, origin_flat)
    # pieces: (target_src, origin_dst, len); one read per piece
    pieces = refine(target_flat, tbase, origin_flat, origin_addr)
    yield from charge_dtproc(ctx, len(pieces[0]))
    events = []
    for src, dst, ln in zip(*(a.tolist() for a in pieces)):
        wr_id = ctx.new_wr_id()
        events.append(ctx.send_completion(wr_id))
        yield from ctx.ctrl_qps[target_rank].post_send(
            SendWR(
                Opcode.RDMA_READ,
                sges=[SGE(dst, ln, reg.lkey_for(dst, ln))],
                remote_addr=src,
                rkey=trkey,
                wr_id=wr_id,
            )
        )
    all_done = ctx.sim.all_of(events)
    win._pending.append((all_done, reg))


def fence(ctx, win: Window):
    """Complete all outstanding operations on the window, then barrier."""
    pending, win._pending = win._pending, []
    for done, reg in pending:
        yield done
        yield from reg.release(ctx)
    yield from ctx.barrier()


# ----------------------------------------------------------------------
# passive target synchronization
# ----------------------------------------------------------------------

def lock(ctx, win: Window, target_rank: int, exclusive: bool = True):
    """Acquire the target's window lock (generator).

    Served by the target's progress engine through the generic control
    path.  Conservatively, shared locks are treated as exclusive (all
    epochs serialize at the target) — correct, if pessimistic, for
    MPI_LOCK_SHARED readers.
    """
    ctx._msg_seq += 1
    msg_id = ctx.rank * 1_000_000 + ctx._msg_seq
    inbox = ctx.msg_inbox(msg_id)
    if target_rank == ctx.rank:
        grant = yield from ctx._win_locks(win.win_id).take()
        win.__dict__.setdefault("_local_grants", []).append(grant)
        return
    yield from ctx.ctrl_send(
        target_rank, _LockReq(msg_id, ctx.rank, win.win_id, exclusive)
    )
    reply = yield from inbox.take()
    assert isinstance(reply, _LockGrant)
    ctx.close_inbox(msg_id)


def unlock(ctx, win: Window, target_rank: int):
    """Release the target's window lock; completes pending ops first."""
    pending, win._pending = win._pending, []
    for done, reg in pending:
        yield done
        yield from reg.release(ctx)
    if target_rank == ctx.rank:
        grants = win.__dict__.get("_local_grants", [])
        ctx._win_locks(win.win_id).release(grants.pop())
        return
    yield from ctx.ctrl_send(target_rank, _LockRelease(ctx.rank, win.win_id))


@dataclass(frozen=True)
class _LockReq:
    msg_id: int
    origin: int
    win_id: int
    exclusive: bool


@dataclass(frozen=True)
class _LockGrant:
    msg_id: int


@dataclass(frozen=True)
class _LockRelease:
    origin: int
    win_id: int
