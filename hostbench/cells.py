"""The five workloads as lists of cells, and the payload oracle.

A cell builds a fresh ``Cluster``, runs its rank programs and verifies
the delivered bytes.  Sizes (trips, windows, rank counts, layouts) are
part of the metric definitions: they are frozen, see README.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.datatypes import BYTE, INT, contiguous, hindexed, struct, vector
from repro.mpi.world import Cluster
from repro.workloads import ir, parse, replay

#: spelled out, not ``repro.schemes.SCHEME_NAMES``: a scheme added later
#: must not change what these workloads measure
SCHEMES = ("generic", "bc-spup", "rwg-up", "p-rrs", "multi-w", "hybrid", "adaptive")

#: the paper's array (Section 3.2): columns of a 128 x 4096 int array
ROWS, ROW_LEN = 128, 4096
#: fine layouts: this many 4-byte blocks, one every 256 bytes on average.
#: (One block per 16 KB row of the paper's array would put every block on
#: a page of its own: zeroing fresh pages then took as long as all the
#: user-mode work of a cell.)
FINE_BLOCKS, FINE_STRIDE_INTS = 4096, 64
#: displacements of ``fine_hindexed`` come from this constant, not from
#: --seed: events and simulated time must read the same under every seed
FINE_HINDEXED_SEED = 20040426

PINGPONG_TRIPS = 2
STREAM_COPY_WINDOW = 3
STREAM_ZEROCOPY_WINDOW = 8
ALLTOALL_RANKS = 6
ALLTOALL_ITERS = 2
TRACES = ("one_sided_halo_epoch1", "particle_exchange")


# ----------------------------------------------------------------------
# payload oracle
# ----------------------------------------------------------------------

def reference_index(offsets, lengths) -> np.ndarray:
    """Byte index of every packed byte of a block list, in pack order.

    Plain numpy arithmetic on the constructor arguments: it shares no
    code with ``Datatype.flatten`` or ``SegmentCursor``, so a pack bug in
    the library cannot hide in the reference.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    packed_start = np.cumsum(lengths) - lengths
    return np.repeat(offsets - packed_start, lengths) + np.arange(lengths.sum())


@dataclass(frozen=True)
class Layout:
    """A datatype and, independently of it, where its bytes lie."""

    name: str
    #: builds a fresh datatype object; called once per cell
    make: Callable
    #: ``reference_index`` of the block list the constructor describes
    index: np.ndarray
    nblocks: int

    @property
    def size(self) -> int:
        return len(self.index)

    @property
    def span(self) -> int:
        return int(self.index[-1]) + 1


def column_vector(cols: int) -> Layout:
    offsets = np.arange(ROWS) * ROW_LEN * 4
    return Layout(
        f"cols{cols}",
        lambda: vector(ROWS, cols, ROW_LEN, INT),
        reference_index(offsets, np.full(ROWS, cols * 4)),
        ROWS,
    )


def contiguous_bytes(nbytes: int) -> Layout:
    return Layout(
        f"contig{nbytes}",
        lambda: contiguous(nbytes, BYTE),
        np.arange(nbytes),
        1,
    )


def fine_vector() -> Layout:
    offsets = np.arange(FINE_BLOCKS) * FINE_STRIDE_INTS * 4
    return Layout(
        "fine_vector",
        lambda: vector(FINE_BLOCKS, 1, FINE_STRIDE_INTS, INT),
        reference_index(offsets, np.full(FINE_BLOCKS, 4)),
        FINE_BLOCKS,
    )


def fine_hindexed() -> Layout:
    """``fine_vector``'s blocks at irregular displacements over its span."""
    rng = np.random.default_rng(FINE_HINDEXED_SEED)
    # 8-byte slots: no two 4-byte blocks touch, so none merge
    slots = rng.choice(FINE_BLOCKS * FINE_STRIDE_INTS // 2, FINE_BLOCKS, replace=False)
    offsets = np.sort(slots) * 8
    displacements = offsets.tolist()
    return Layout(
        "fine_hindexed",
        lambda: hindexed([4] * FINE_BLOCKS, displacements, BYTE),
        reference_index(offsets, np.full(FINE_BLOCKS, 4)),
        FINE_BLOCKS,
    )


def fig10_struct(last_block_ints: int) -> Layout:
    """Figure 10: int blocks of 1, 2, 4, ... each followed by an equal gap."""
    counts, offsets, pos, n = [], [], 0, 1
    while n <= last_block_ints:
        counts.append(n)
        offsets.append(pos * 4)
        pos += 2 * n
        n *= 2
    return Layout(
        f"fig10_{last_block_ints}",
        lambda: struct(counts, offsets, [INT] * len(counts)),
        reference_index(offsets, np.array(counts) * 4),
        len(counts),
    )


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    events: int
    sim_us: float
    #: messages checked whose delivered bytes differ from the reference
    failed: int
    cluster: Cluster


def _place(mpi, layout: Layout, payload=None) -> int:
    """Allocate a buffer for one element of ``layout``; lay ``payload``
    into it when given."""
    addr = mpi.alloc(layout.span)
    if payload is not None:
        mpi.node.memory.view(addr, layout.span)[layout.index] = payload
    return addr


def _flip_byte(memory, addr: int) -> None:
    memory.view(addr, 1)[0] ^= 0xFF


class PairCell:
    """Two ranks: ``pingpong`` (n round trips) or ``stream`` (a window of
    n isend/irecv, then waitall).

    The first message travels between its own pair of buffers and the
    rest share a second pair, so the first and the last message are both
    checkable after the run at no cost inside it.
    """

    def __init__(self, pattern, scheme, layout, n, payloads, *,
                 options=None, eager_rdma=False, tag=""):
        self.name = f"{scheme}{tag}/{layout.name}"
        self.pattern = pattern
        self.scheme = scheme
        self.layout = layout
        self.n = n
        self.payloads = payloads
        self.options = options or {}
        self.eager_rdma = eager_rdma
        self.messages = 2 * n if pattern == "pingpong" else n
        self.blocks = self.messages * layout.nblocks
        self.corrupt = False

    def execute(self, spans) -> Outcome:
        layout, n, payloads = self.layout, self.n, self.payloads
        with spans.span("dt_build"):
            dt = layout.make()
        with spans.span("cluster_build"):
            cluster = Cluster(
                2,
                scheme=self.scheme,
                scheme_options=self.options,
                eager_rdma=self.eager_rdma,
            )
        #: (memory, address, payload expected there) per landing buffer
        landed = []

        def landing(mpi) -> list:
            """Two empty buffers; what must be in them after the run."""
            addrs = [_place(mpi, layout) for _ in payloads]
            landed.extend(zip([mpi.node.memory] * 2, addrs, payloads))
            return addrs

        def pingpong0(mpi):
            src = [_place(mpi, layout, p) for p in payloads]
            back = landing(mpi)
            for i in range(n):
                k = min(i, 1)
                yield from mpi.send(src[k], dt, 1, dest=1, tag=0)
                yield from mpi.recv(back[k], dt, 1, source=1, tag=1)

        def pingpong1(mpi):
            land = landing(mpi)
            for i in range(n):
                k = min(i, 1)
                yield from mpi.recv(land[k], dt, 1, source=0, tag=0)
                yield from mpi.send(land[k], dt, 1, dest=0, tag=1)

        def stream0(mpi):
            src = [_place(mpi, layout, p) for p in payloads]
            reqs = []
            for i in range(n):
                req = yield from mpi.isend(src[min(i, 1)], dt, 1, dest=1, tag=i)
                reqs.append(req)
            yield from mpi.waitall(reqs)

        def stream1(mpi):
            land = landing(mpi)
            reqs = []
            for i in range(n):
                req = yield from mpi.irecv(land[min(i, 1)], dt, 1, source=0, tag=i)
                reqs.append(req)
            yield from mpi.waitall(reqs)

        programs = (
            [pingpong0, pingpong1] if self.pattern == "pingpong"
            else [stream0, stream1]
        )
        with spans.span("run"):
            result = cluster.run(programs)
        if self.corrupt:
            memory, addr, _ = landed[0]
            _flip_byte(memory, addr + int(layout.index[0]))
        with spans.span("verify"):
            failed = sum(
                not np.array_equal(
                    memory.view(addr, layout.span)[layout.index], payload
                )
                for memory, addr, payload in landed
            )
        return Outcome(cluster.sim.events_processed, result.time_us, failed, cluster)


class AlltoallCell:
    """``iters`` MPI_Alltoall of one ``layout`` element per peer.

    ``payloads[k][r, s]`` is what rank r sends to rank s; round 0 uses
    its own buffers, later rounds share a second pair (see PairCell).
    """

    def __init__(self, scheme, layout, nranks, iters, payloads):
        self.name = f"{scheme}/{layout.name}x{nranks}"
        self.scheme = scheme
        self.layout = layout
        self.nranks = nranks
        self.iters = iters
        self.payloads = payloads
        self.messages = iters * nranks * nranks
        self.blocks = self.messages * layout.nblocks
        self.corrupt = False

    def execute(self, spans) -> Outcome:
        layout, nranks, iters = self.layout, self.nranks, self.iters
        with spans.span("dt_build"):
            dt = layout.make()
            extent = dt.extent
        with spans.span("cluster_build"):
            cluster = Cluster(nranks, scheme=self.scheme)
        #: per rank: (memory, [receive buffer of round 0, of later rounds])
        landed = {}

        def per_peer(memory, addr):
            """The buffer as one row per peer (a view)."""
            return memory.view(addr, nranks * extent).reshape(nranks, extent)

        def program(mpi):
            memory = mpi.node.memory
            send, recv = [], []
            for sent in self.payloads:
                addr = mpi.alloc(nranks * extent)
                per_peer(memory, addr)[:, layout.index] = sent[mpi.rank]
                send.append(addr)
                recv.append(mpi.alloc(nranks * extent))
            landed[mpi.rank] = (memory, recv)
            for i in range(iters):
                k = min(i, 1)
                yield from mpi.alltoall(send[k], dt, 1, recv[k], dt, 1)

        with spans.span("run"):
            result = cluster.run(program)
        if self.corrupt:
            memory, recv = landed[0]
            _flip_byte(memory, recv[0] + int(layout.index[0]))
        with spans.span("verify"):
            failed = 0
            for rank, (memory, recv) in landed.items():
                for addr, sent in zip(recv, self.payloads):
                    got = per_peer(memory, addr)[:, layout.index]
                    wrong = got != sent[:, rank]
                    failed += int(wrong.any(axis=1).sum())
        return Outcome(cluster.sim.events_processed, result.time_us, failed, cluster)


@contextmanager
def _noting_clusters(spans):
    """``replay`` returns no handle on the Cluster it builds, and events
    and counters are read from one: note every Cluster constructed inside
    the block (under a ``cluster_build`` span).  The one place hostbench
    reaches around the public API."""
    built = []
    init = Cluster.__init__

    def noting_init(self, *args, **kwargs):
        with spans.span("cluster_build"):
            init(self, *args, **kwargs)
        built.append(self)

    Cluster.__init__ = noting_init
    try:
        yield built
    finally:
        Cluster.__init__ = init


_MESSAGE_OPS = (ir.Send, ir.Isend, ir.Put)


class ReplayCell:
    """One trace through the IR front door: JSON text -> ``parse`` ->
    ``replay`` under the recorded scheme; every landing zone is compared
    with a ``generic`` replay made during set-up."""

    def __init__(self, name: str, text: str):
        self.name = name
        self.text = text
        workload = parse(text)
        types = workload.built_types()
        sends = [
            op for ops in workload.ranks for op in ops
            if isinstance(op, _MESSAGE_OPS)
        ]
        self.messages = len(sends)
        self.blocks = sum(
            types[op.type].flatten(op.count).nblocks for op in sends
        )
        self.reference = replay(
            workload, scheme="generic", collect_payloads=True
        ).payloads
        self.corrupt = False

    def execute(self, spans) -> Outcome:
        with spans.span("parse"):
            workload = parse(self.text)
        with _noting_clusters(spans) as built, spans.span("replay"):
            result = replay(workload, check=True, collect_payloads=True)
        (cluster,) = built
        payloads = result.payloads
        if self.corrupt:
            zone = next(iter(payloads[0]))
            payloads[0][zone] = b"\xff" + payloads[0][zone][1:]
        with spans.span("verify"):
            failed = sum(
                got.get(zone) != want[zone]
                for got, want in zip(payloads, self.reference)
                for zone in want
            )
        return Outcome(cluster.sim.events_processed, result.time_us, failed, cluster)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def build(workload: str, seed: int, quick: bool = False) -> list:
    """The cells of ``workload`` in their fixed order.

    ``seed`` makes the payload bytes, nothing else.  ``quick`` keeps the
    smallest cells only (the schema test).
    """
    rng = np.random.default_rng(seed)

    def payloads(layout, *shape):
        """Two payloads: for the first message and for the rest."""
        return [
            rng.integers(0, 256, (*shape, layout.size), dtype=np.uint8)
            for _ in range(2)
        ]

    cells: list = []
    if workload == "pingpong_latency":
        for cols in (1,) if quick else (1, 32, 2048):
            layout = column_vector(cols)
            for scheme in SCHEMES:
                cells.append(PairCell(
                    "pingpong", scheme, layout, PINGPONG_TRIPS, payloads(layout)
                ))
        layout = column_vector(1)
        cells.append(PairCell(
            "pingpong", "bc-spup", layout, PINGPONG_TRIPS, payloads(layout),
            eager_rdma=True, tag="+eager_rdma",
        ))
        if not quick:
            layout = contiguous_bytes(64 * 1024)
            cells.append(PairCell(
                "pingpong", "bc-spup", layout, PINGPONG_TRIPS, payloads(layout)
            ))
    elif workload == "stream_copy":
        layouts = [column_vector(32)]
        if not quick:
            layouts += [fine_vector(), fine_hindexed()]
        for layout in layouts:
            for scheme in ("generic", "bc-spup", "rwg-up", "p-rrs"):
                cells.append(PairCell(
                    "stream", scheme, layout, STREAM_COPY_WINDOW, payloads(layout)
                ))
    elif workload == "stream_zerocopy":
        for cols in (64,) if quick else (64, 512):
            layout = column_vector(cols)
            for scheme, options, tag in (
                ("multi-w", None, ""),
                ("multi-w", {"list_post": False}, "+single_post"),
                ("hybrid", None, ""),
            ):
                cells.append(PairCell(
                    "stream", scheme, layout, STREAM_ZEROCOPY_WINDOW,
                    payloads(layout), options=options, tag=tag,
                ))
    elif workload == "alltoall_struct":
        layout = fig10_struct(8192)
        nranks = ALLTOALL_RANKS
        for scheme in ("bc-spup",) if quick else ("bc-spup", "multi-w"):
            cells.append(AlltoallCell(
                scheme, layout, nranks, ALLTOALL_ITERS,
                payloads(layout, nranks, nranks),
            ))
    elif workload == "trace_replay":
        traces = Path(__file__).resolve().parent / "traces"
        for name in TRACES[1:] if quick else TRACES:
            cells.append(ReplayCell(name, (traces / f"{name}.json").read_text()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cells
