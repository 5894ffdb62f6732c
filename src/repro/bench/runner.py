"""Measurement runners: ping-pong latency, streaming bandwidth, alltoall,
and the extensions' probes (one-sided put, send stream, file I/O).

The ``measure_*`` functions build a fresh
:class:`~repro.mpi.world.Cluster`, run the benchmark's rank programs, and
return **simulated** microseconds (or MB/s derived from them).  Warmup
iterations absorb one-time costs (first-touch registration, pool growth,
datatype-cache fill), exactly as a real benchmark's warmup loop amortizes
them on hardware.

This module is also where every world outside ``repro.mpi`` and
``repro.workloads`` comes from: :func:`make_cluster` is the bench-sized
factory, and :func:`run_oneway` the single one-way transfer that the
observability probes (``obs report`` / ``profile`` / ``hostprof``,
``bench overlap``) run before reading the instruments it leaves behind —
traced, that is :func:`traced_oneway`.
"""

from __future__ import annotations

from typing import Optional

from repro.datatypes import Datatype, contiguous, INT, BYTE
from repro.ib.costmodel import MB
from repro.mpi.world import Cluster, RunResult

__all__ = [
    "contig_leg",
    "datatype_leg",
    "make_cluster",
    "manual_leg",
    "measure_alltoall",
    "measure_bandwidth",
    "measure_io",
    "measure_pingpong",
    "measure_put",
    "measure_send_stream",
    "multiple_leg",
    "run_oneway",
    "traced_oneway",
]

_BENCH_MEMORY = 512 * MB


def make_cluster(
    scheme, cluster_kwargs=None, scheme_options=None, nranks=2
) -> Cluster:
    """A fresh bench-sized cluster (512 MB per rank unless overridden)."""
    kwargs = dict(memory_per_rank=_BENCH_MEMORY)
    kwargs.update(cluster_kwargs or {})
    return Cluster(
        nranks, scheme=scheme, scheme_options=scheme_options or {}, **kwargs
    )


def _span(dt: Datatype, count: int = 1) -> int:
    return dt.flatten(count).span + abs(dt.lb) + 64


# ----------------------------------------------------------------------
# one-way transfer (the probes' experiment)
# ----------------------------------------------------------------------

def run_oneway(
    cluster: Cluster, dt: Datatype, *, count: int = 1, iters: int = 1
) -> RunResult:
    """``iters`` transfers of ``(dt, count)`` from rank 0 to rank 1 of a
    2-rank ``cluster`` built with whatever instruments the caller wants
    to read afterwards (``trace=``, ``host_profile=``).

    Rank 1's value in the result is its last receive request, whose
    ``done`` event is where a critical-path walk starts (on a traced
    cluster, which records the provenance the walk follows).
    """
    span = _span(dt, count)

    def rank0(mpi):
        buf = mpi.alloc(span)
        for i in range(iters):
            yield from mpi.send(buf, dt, count, dest=1, tag=i)

    def rank1(mpi):
        buf = mpi.alloc(span)
        req = None
        for i in range(iters):
            req = yield from mpi.recv(buf, dt, count, source=0, tag=i)
        return req

    return cluster.run([rank0, rank1])


def traced_oneway(
    scheme: str, dt: Datatype, *, iters: int = 1, cost_model=None
) -> RunResult:
    """:func:`run_oneway` on a fresh traced bench cluster (``cost_model``
    default: the paper's testbed) — the one transfer ``obs report`` /
    ``profile``, ``bench overlap`` and every probe's Chrome trace read."""
    cluster = make_cluster(scheme, {"cost_model": cost_model, "trace": True})
    return run_oneway(cluster, dt, iters=iters)


# ----------------------------------------------------------------------
# ping-pong latency: four legs, one timed loop
# ----------------------------------------------------------------------

def datatype_leg(mpi, dt: Datatype, count: int = 1):
    """The library moves the layout: one datatype send, one datatype
    receive ("Datatype")."""
    buf = mpi.alloc(_span(dt, count))
    peer = 1 - mpi.rank

    def push():
        yield from mpi.send(buf, dt, count, dest=peer, tag=mpi.rank)

    def pull():
        yield from mpi.recv(buf, dt, count, source=peer, tag=peer)

    return push, pull


def contig_leg(mpi, dt: Datatype, count: int = 1):
    """The same byte count sent as one contiguous block ("Contig")."""
    return datatype_leg(mpi, contiguous(dt.size * count, BYTE))


def manual_leg(mpi, dt: Datatype, count: int = 1):
    """The paper's "Manual" strategy: the application packs into its own
    contiguous buffer, sends contiguously, and unpacks by hand."""
    buf = mpi.alloc(_span(dt, count))
    stage = mpi.alloc(max(dt.size * count, 1))
    contig = contiguous(dt.size * count, BYTE)
    peer = 1 - mpi.rank

    def push():
        yield from mpi.user_pack(buf, dt, count, stage)
        yield from mpi.send(stage, contig, 1, dest=peer, tag=mpi.rank)

    def pull():
        yield from mpi.recv(stage, contig, 1, source=peer, tag=peer)
        yield from mpi.user_unpack(buf, dt, count, stage)

    return push, pull


def multiple_leg(mpi, dt: Datatype, count: int = 1):
    """The paper's "Multiple" strategy: one MPI call per contiguous block
    ("transfers each contiguous block one by one using individual MPI
    calls"), in both directions — the pong posts one receive per block
    too.  Block ``k`` travels under tag ``k``."""
    buf = mpi.alloc(_span(dt, count))
    blocks = list(dt.flatten(count).blocks())
    peer = 1 - mpi.rank

    def each_block(post):
        reqs = []
        for k, (off, ln) in enumerate(blocks):
            r = yield from post(buf + off, contiguous(ln, BYTE), 1, peer, k)
            reqs.append(r)
        yield from mpi.waitall(reqs)

    return (lambda: each_block(mpi.isend)), (lambda: each_block(mpi.irecv))


def measure_pingpong(
    scheme: str,
    dt: Datatype,
    *,
    count: int = 1,
    iters: int = 5,
    warmup: int = 1,
    cluster_kwargs: Optional[dict] = None,
    scheme_options: Optional[dict] = None,
    leg=datatype_leg,
) -> float:
    """One-way ping-pong latency of ``(dt, count)`` in simulated
    microseconds.

    ``leg`` is how one direction moves: called once per rank as
    ``leg(mpi, dt, count)`` it allocates that rank's buffers and returns
    the pair of generator functions ``(push, pull)`` the timed loop
    alternates.  Messages carry the sending rank as their tag unless the
    leg says otherwise.
    """

    def program(mpi):
        push, pull = leg(mpi, dt, count)
        first, second = (push, pull) if mpi.rank == 0 else (pull, push)
        t0 = None
        for i in range(warmup + iters):
            if i == warmup:
                t0 = mpi.now
            yield from first()
            yield from second()
        return (mpi.now - t0) / iters / 2

    cluster = make_cluster(scheme, cluster_kwargs, scheme_options)
    return cluster.run(program).values[0]


# ----------------------------------------------------------------------
# streaming bandwidth
# ----------------------------------------------------------------------

def measure_bandwidth(
    scheme: str,
    dt: Datatype,
    *,
    count: int = 1,
    window: int = 100,
    warmup_windows: int = 1,
    cluster_kwargs: Optional[dict] = None,
    scheme_options: Optional[dict] = None,
) -> float:
    """Streaming bandwidth in MB/s (MB = 2**20 bytes, per the paper).

    The paper's test: "The sender pushes 100 consecutive datatype
    messages and then waits for a reply from the receiver when all
    messages have been received."
    """
    nbytes = dt.size * count
    ackdt = contiguous(1, INT)

    def rank0(mpi):
        buf = mpi.alloc(_span(dt, count))
        ack = mpi.alloc(8)
        t0 = None
        for w in range(warmup_windows + 1):
            if w == warmup_windows:
                t0 = mpi.now
            reqs = []
            for k in range(window):
                r = yield from mpi.isend(buf, dt, count, dest=1, tag=k)
                reqs.append(r)
            yield from mpi.waitall(reqs)
            yield from mpi.recv(ack, ackdt, 1, source=1, tag=99999)
        return mpi.now - t0

    def rank1(mpi):
        buf = mpi.alloc(_span(dt, count))
        ack = mpi.alloc(8)
        for _w in range(warmup_windows + 1):
            reqs = []
            for k in range(window):
                r = yield from mpi.irecv(buf, dt, count, source=0, tag=k)
                reqs.append(r)
            yield from mpi.waitall(reqs)
            yield from mpi.send(ack, ackdt, 1, dest=0, tag=99999)

    cluster = make_cluster(scheme, cluster_kwargs, scheme_options)
    elapsed_us = cluster.run([rank0, rank1]).values[0]
    total_bytes = nbytes * window
    return (total_bytes / MB) / (elapsed_us / 1e6)


# ----------------------------------------------------------------------
# MPI_Alltoall
# ----------------------------------------------------------------------

def measure_alltoall(
    scheme: str,
    dt: Datatype,
    *,
    nranks: int = 8,
    iters: int = 3,
    warmup: int = 1,
    cluster_kwargs: Optional[dict] = None,
    scheme_options: Optional[dict] = None,
) -> float:
    """Average MPI_Alltoall completion time (simulated us)."""

    def program(mpi):
        send = mpi.alloc(nranks * dt.extent + 64)
        recv = mpi.alloc(nranks * dt.extent + 64)
        t0 = None
        for i in range(warmup + iters):
            if i == warmup:
                t0 = mpi.now
            yield from mpi.alltoall(send, dt, 1, recv, dt, 1)
        return (mpi.now - t0) / iters

    cluster = make_cluster(scheme, cluster_kwargs, scheme_options, nranks=nranks)
    return max(cluster.run(program).values)


# ----------------------------------------------------------------------
# the extensions: one-sided put, its two-sided counterpart, file I/O
# ----------------------------------------------------------------------

def measure_put(scheme, dt, *, cluster_kwargs=None, scheme_options=None):
    """Simulated us per ``MPI_Put`` of ``dt``: three epochs of eight puts,
    the closing fence amortized over its epoch."""
    span, epochs, ops = _span(dt), 3, 8

    def program(mpi):
        src = mpi.alloc(span)
        win = yield from mpi.win_create(mpi.alloc(span), span)
        yield from mpi.win_fence(win)
        t0 = mpi.now
        for _ in range(epochs):
            for _ in range(ops if mpi.rank == 0 else 0):
                yield from mpi.put(win, 1, src, dt)
            yield from mpi.win_fence(win)
        return (mpi.now - t0) / (epochs * ops)

    cluster = make_cluster(scheme, cluster_kwargs, scheme_options)
    return cluster.run(program).values[0]


def measure_send_stream(scheme, dt, *, cluster_kwargs=None, scheme_options=None):
    """Simulated us per blocking send of ``dt`` in a one-way stream of eight,
    after one warm-up send: what a put is compared with."""
    span, iters = _span(dt), 8

    def program(mpi):
        buf = mpi.alloc(span)
        move = mpi.send if mpi.rank == 0 else mpi.recv
        yield from move(buf, dt, 1, 1 - mpi.rank, 0)
        t0 = mpi.now
        for k in range(iters):
            yield from move(buf, dt, 1, 1 - mpi.rank, 1 + k)
        return (mpi.now - t0) / iters

    cluster = make_cluster(scheme, cluster_kwargs, scheme_options)
    return cluster.run(program).values[0]


def measure_io(scheme, dt, *, strategy, op, cluster_kwargs=None, scheme_options=None):
    """Simulated us of one ``op`` (``"write"`` / ``"read"``) of client memory
    laid out as ``dt`` on a one-server file, after one warm-up write.  No MPI
    scheme is involved: ``scheme`` / ``scheme_options`` are the signature's."""
    from repro.io import StorageCluster

    cluster = StorageCluster(1, **(cluster_kwargs or {}))
    addr = cluster.clients[0].node.memory.alloc(dt.extent + 64)

    def program(io):
        fh = yield from io.open("f", dt.size)
        yield from io.write(fh, 0, addr, dt, strategy=strategy)
        t0 = io.sim.now
        move = io.write if op == "write" else io.read
        yield from move(fh, 0, addr, dt, strategy=strategy)
        return io.sim.now - t0

    return cluster.run(program)[0]
