"""The ``examples/`` communication patterns as recordable rank programs.

This module is the one home of each pattern's rank program: the
examples run these programs, each verifies its own result, and each
runs at a parameter point chosen so the noncontiguous messages land
**above** the 8 KiB eager threshold — the rendezvous regime where the
seven datatype schemes actually diverge.  :func:`record_pattern` runs a
pattern through the recorder, producing the checked-in ``.json``
workload files in ``workloads/library/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import types
from repro.workloads.record import RecordedRun, record

__all__ = ["PATTERNS", "Pattern", "pattern_names", "record_pattern"]

# -- halo_exchange_2d ---------------------------------------------------
# LOCAL doubles per column halo: 1056 * 8 B = 8448 B > the 8192 B eager
# threshold, so east/west vectors go rendezvous through the scheme.

HALO_PX, HALO_PY = 2, 2
HALO_LOCAL = 1056
HALO_ITERS = 2


def _halo_neighbours(rank: int, px: int, py: int):
    gy, gx = divmod(rank, px)
    return (
        ((gy - 1) % py) * px + gx,
        ((gy + 1) % py) * px + gx,
        gy * px + (gx - 1) % px,
        gy * px + (gx + 1) % px,
    )


def _check_halos(tile, north, south, west, east):
    """Each halo of ``tile`` holds its neighbour's rank + 1."""
    for halo, peer in ((tile[0, 1:-1], north), (tile[-1, 1:-1], south),
                       (tile[1:-1, 0], west), (tile[1:-1, -1], east)):
        assert (halo == peer + 1).all()


def halo_exchange_2d(mpi):
    n = HALO_LOCAL + 2
    tile = mpi.alloc_array((n, n), np.float64)
    tile.array[1:-1, 1:-1] = mpi.rank + 1
    row = types.contiguous(HALO_LOCAL, types.DOUBLE)
    col = types.vector(HALO_LOCAL, 1, n, types.DOUBLE)
    north, south, west, east = _halo_neighbours(mpi.rank, HALO_PX, HALO_PY)
    item = 8

    def at(r, c):
        return tile.addr + (r * n + c) * item

    for _ in range(HALO_ITERS):
        reqs = []
        for args in (
            (at(0, 1), row, 1, north, 0),
            (at(n - 1, 1), row, 1, south, 1),
            (at(1, 0), col, 1, west, 2),
            (at(1, n - 1), col, 1, east, 3),
        ):
            r = yield from mpi.irecv(*args)
            reqs.append(r)
        for args in (
            (at(1, 1), row, 1, north, 1),
            (at(n - 2, 1), row, 1, south, 0),
            (at(1, 1), col, 1, west, 3),
            (at(1, n - 2), col, 1, east, 2),
        ):
            r = yield from mpi.isend(*args)
            reqs.append(r)
        yield from mpi.waitall(reqs)
    _check_halos(tile.array, north, south, west, east)
    return 0


# -- particle_exchange --------------------------------------------------
# 256 leaving slots * 48 B = 12288 B per hindexed message, fresh types
# every iteration (the layout-cache-defeating case).

PART_NRANKS = 4
PART_NPARTICLES = 1024
PART_BYTES = 48
PART_ITERS = 2
PART_LEAVE = 0.25


def _leaving_datatype(seed: int):
    rng = np.random.default_rng(seed)
    nleave = int(PART_NPARTICLES * PART_LEAVE)
    slots = np.sort(rng.choice(PART_NPARTICLES, size=nleave, replace=False))
    disps = (slots * PART_BYTES).tolist()
    return types.hindexed([PART_BYTES] * nleave, disps, types.BYTE)


def particle_exchange(mpi):
    right = (mpi.rank + 1) % PART_NRANKS
    left = (mpi.rank - 1) % PART_NRANKS
    nbytes = PART_NPARTICLES * PART_BYTES
    particles = mpi.alloc(nbytes)
    inbox = mpi.alloc(nbytes)
    mpi.node.memory.view(particles, nbytes)[:] = mpi.rank + 1
    for it in range(PART_ITERS):
        send_dt = _leaving_datatype(seed=1000 * it + mpi.rank)
        recv_dt = _leaving_datatype(seed=1000 * it + left)
        sreq = yield from mpi.isend(particles, send_dt, 1, right, it)
        rreq = yield from mpi.irecv(inbox, recv_dt, 1, left, it)
        yield from mpi.waitall([sreq, rreq])
        for off, ln in recv_dt.flatten(1).blocks():
            blk = mpi.node.memory.view(inbox + off, ln)
            assert (blk == left + 1).all()
    return 0


# -- matrix_transpose_alltoall ------------------------------------------
# Send chunks are 64 x 64 double slabs (32768 B, noncontiguous vector).

TRANS_P = 4
TRANS_N = 256
TRANS_ROWS = TRANS_N // TRANS_P


def matrix_transpose_alltoall(mpi):
    cols_per = TRANS_N // TRANS_P
    panel = mpi.alloc_array((TRANS_ROWS, TRANS_N), np.float64)
    first_row = mpi.rank * TRANS_ROWS
    panel.array[:] = (
        np.arange(first_row, first_row + TRANS_ROWS)[:, None] * TRANS_N
        + np.arange(TRANS_N)
    )
    recv = mpi.alloc_array((TRANS_P, TRANS_ROWS, cols_per), np.float64)
    slab = types.vector(TRANS_ROWS, cols_per, TRANS_N, types.DOUBLE)
    send_chunk = types.resized(slab, lb=0, extent=cols_per * 8)
    recv_chunk = types.contiguous(TRANS_ROWS * cols_per, types.DOUBLE)
    yield from mpi.alltoall(
        panel.addr, send_chunk, 1, recv.addr, recv_chunk, 1
    )
    mine = np.concatenate([recv.array[i] for i in range(TRANS_P)], axis=0)
    first_col = mpi.rank * cols_per
    expect = (
        np.arange(TRANS_N)[None, :] * TRANS_N
        + np.arange(first_col, first_col + cols_per)[:, None]
    )
    assert np.array_equal(mine.T, expect), "transpose corrupted"
    return 0


# -- one_sided_halo -----------------------------------------------------
# The halo pattern again, but via RMA put + fence epochs.

OS_PX, OS_PY = 2, 2
OS_LOCAL = 1056
OS_ITERS = 2


def one_sided_halo(mpi):
    n = OS_LOCAL + 2
    item = 8
    tile = mpi.alloc_array((n, n), np.float64)
    tile.array[1:-1, 1:-1] = mpi.rank + 1
    win = yield from mpi.win_create(tile.addr, n * n * item)
    north, south, west, east = _halo_neighbours(mpi.rank, OS_PX, OS_PY)

    def disp(r, c):
        return (r * n + c) * item

    row = types.contiguous(OS_LOCAL, types.DOUBLE)
    col = types.vector(OS_LOCAL, 1, n, types.DOUBLE)
    yield from mpi.win_fence(win)
    for _ in range(OS_ITERS):
        yield from mpi.put(win, north, tile.addr + disp(1, 1), row,
                           target_disp=disp(n - 1, 1))
        yield from mpi.put(win, south, tile.addr + disp(n - 2, 1), row,
                           target_disp=disp(0, 1))
        yield from mpi.put(win, west, tile.addr + disp(1, 1), col,
                           target_disp=disp(1, n - 1), target_dt=col)
        yield from mpi.put(win, east, tile.addr + disp(1, n - 2), col,
                           target_disp=disp(1, 0), target_dt=col)
        yield from mpi.win_fence(win)
    _check_halos(tile.array, north, south, west, east)
    return 0


@dataclass(frozen=True)
class Pattern:
    """One recordable example pattern."""

    name: str
    nranks: int
    program: Callable
    summary: str


PATTERNS: dict[str, Pattern] = {
    p.name: p
    for p in (
        Pattern(
            "halo_exchange_2d", HALO_PX * HALO_PY, halo_exchange_2d,
            "2-D halo exchange, vector column halos (rendezvous)",
        ),
        Pattern(
            "particle_exchange", PART_NRANKS, particle_exchange,
            "ring exchange with fresh hindexed types per iteration",
        ),
        Pattern(
            "matrix_transpose_alltoall", TRANS_P, matrix_transpose_alltoall,
            "alltoall matrix transpose with resized vector slabs",
        ),
        Pattern(
            "one_sided_halo", OS_PX * OS_PY, one_sided_halo,
            "halo exchange via RMA put with target datatypes + fence",
        ),
    )
}


def pattern_names() -> tuple:
    return tuple(sorted(PATTERNS))


def record_pattern(name: str, *, scheme: str = "bc-spup") -> RecordedRun:
    """Record one pattern's live run into a workload trace."""
    pattern = PATTERNS.get(name)
    if pattern is None:
        raise KeyError(
            f"unknown pattern {name!r}; choose from {pattern_names()}"
        )
    return record(
        pattern.program, name=name, nranks=pattern.nranks, scheme=scheme
    )
