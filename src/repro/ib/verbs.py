"""Verbs-level objects: work requests, queue pairs, completion queues.

The model follows the InfiniBand Verbs abstraction the paper describes in
Section 2:

* **Channel semantics** — ``SEND`` descriptors are matched one-to-one with
  pre-posted ``RECV`` descriptors on the remote side; received data is
  scattered into the receive descriptor's SGEs and a completion entry is
  generated in the receiver's CQ.
* **Memory semantics** — ``RDMA_WRITE``/``RDMA_READ`` are one-sided.
  Write-gather collects multiple local SGEs into one contiguous remote
  range; read-scatter reads one contiguous remote range into multiple
  local SGEs.  ``RDMA_WRITE_IMM`` additionally consumes a remote receive
  descriptor and generates a remote completion carrying the immediate
  value — the segment-arrival notification mechanism of Sections 4.3.2
  and 7.3.
* **List descriptor post** — ``post_send_list`` models the Mellanox
  extended interface (Section 7.4) that posts a chain of descriptors in
  one call; the CPU cost difference is what Figure 13 measures.  A
  :class:`WriteList`, the array form of such a chain, is validated and
  enqueued in one pass; any other sequence one descriptor at a time.

Posting functions are generators: they charge the CPU cost of the post on
the owning node's CPU resource, then hand the descriptor(s) to the HCA send
engine.  Everything after that is asynchronous HCA work.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro.ib.memory import ProtectionError, block_arrays
from repro.simulator import Event, SimulationError, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.hca import HCA

__all__ = [
    "MAX_SGE",
    "Completion",
    "CompletionQueue",
    "Opcode",
    "QPState",
    "QueuePair",
    "RDMA_WRITES",
    "RecvWR",
    "SGE",
    "SGEList",
    "SendWR",
    "WriteList",
]

#: Mellanox SDK scatter/gather limit the paper cites in Section 5.1.
MAX_SGE = 64


class QPState(enum.Enum):
    """The (reduced) IB queue-pair state machine.

    Real QPs walk RESET→INIT→RTR→RTS; the simulation collapses the setup
    ladder into RESET→RTS at :meth:`repro.ib.fabric.Fabric.connect` time.
    Under fault injection a QP whose send queue errors beyond its retry
    budget drops to SQE (send-queue error; receive side still live) and —
    if recovery itself keeps failing — to ERR.  The HCA send engine cycles
    SQE/ERR QPs back to RTS at ``CostModel.qp_recovery_us`` apiece.
    """

    RESET = "reset"
    RTS = "rts"
    SQE = "sqe"
    ERR = "err"


class Opcode(enum.Enum):
    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_IMM = "rdma_write_imm"
    #: an RDMA write whose arrival the receiver detects by *polling* a
    #: flag at the end of the written buffer (no receive descriptor, no
    #: CQE machinery) — the RDMA-eager mechanism of Liu et al. [19].
    #: Modelled as a write that surfaces a completion in the remote recv
    #: CQ after ``eager_rdma_poll`` without consuming a descriptor.
    RDMA_WRITE_POLLED = "rdma_write_polled"
    RDMA_READ = "rdma_read"


#: the opcodes that write remote memory (and so can land a silent write)
RDMA_WRITES = (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_IMM, Opcode.RDMA_WRITE_POLLED)


class SGE(NamedTuple):
    """A scatter/gather entry: one contiguous local range."""

    addr: int
    length: int
    lkey: int


class SGEList:
    """A gather/scatter list as three parallel int64 arrays — what
    :func:`repro.schemes.base.sge_lists` builds for ``MAX_SGE`` blocks at
    once.  Sized, and iterable as :class:`SGE` objects for code that asks;
    validation and the HCA's DMA read the arrays.

    A cut of a sorted layout carries its shape: ``width`` (None unless
    sorted, see ``NodeMemory.copy_blocks``) and, if every entry has it,
    ``lkey``, so that it is checked as its span."""

    __slots__ = ("addrs", "lengths", "lkeys", "nbytes", "width", "lkey")

    def __init__(
        self, addrs: np.ndarray, lengths: np.ndarray, lkeys: np.ndarray,
        nbytes: Optional[int] = None, width: Optional[int] = None,
        lkey: Optional[int] = None,
    ):
        self.addrs, self.lengths, self.lkeys = addrs, lengths, lkeys
        self.nbytes = int(lengths.sum()) if nbytes is None else nbytes
        self.width, self.lkey = width, lkey

    @classmethod
    def of(cls, sges) -> "SGEList":
        """``sges`` itself, or the arrays of a sequence of :class:`SGE`."""
        return sges if isinstance(sges, cls) else cls(*block_arrays(sges, 3))

    def hulls(self):
        """``(addr, length, lkey)`` spanning the entries under each lkey:
        the list lies inside its regions exactly if these ranges do."""
        if self.lkey is not None:
            lo = int(self.addrs[0])
            yield lo, int(self.addrs[-1] + self.lengths[-1]) - lo, self.lkey
            return
        ends = self.addrs + self.lengths
        first = self.lkeys[:1]
        one = (self.lkeys == first).all()  # the usual case: one region
        for lkey in first.tolist() if one else set(self.lkeys.tolist()):
            mine = slice(None) if one else self.lkeys == lkey
            lo = int(self.addrs[mine].min())
            yield lo, int(ends[mine].max()) - lo, lkey

    def inside(self, check) -> bool:
        """Whether ``check_local`` / ``check_remote`` accepts every hull."""
        try:
            for hull in self.hulls():
                check(*hull)
        except ProtectionError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.addrs)

    def __iter__(self):
        return map(SGE, *(a.tolist() for a in (self.addrs, self.lengths, self.lkeys)))


@dataclass
class SendWR:
    """A send-queue work request.

    ``sges`` is the local gather list (for SEND / RDMA_WRITE*) or the local
    scatter list (for RDMA_READ) — a sequence of :class:`SGE` or an
    :class:`SGEList`.  ``remote_addr``/``rkey`` address the
    remote contiguous range for RDMA opcodes.  ``payload`` lets channel
    semantics carry a control-message object alongside (or instead of)
    bytes, like a real MPI implementation lays a header struct into the
    send buffer.
    """

    opcode: Opcode
    sges: Sequence[SGE] = field(default_factory=tuple)
    remote_addr: int = 0
    rkey: int = 0
    imm: Optional[int] = None
    wr_id: int = 0
    signaled: bool = True
    payload: object = None
    #: extra wire bytes carried by the descriptor that are not gathered
    #: from memory — models protocol headers and inline control data
    #: (e.g. the flattened-datatype representation message of Multi-W),
    #: which occupy the wire but do not land in remote data buffers.
    extra_bytes: int = 0

    def __post_init__(self) -> None:
        if len(self.sges) > 1:  # the door: validation and DMA read arrays
            self.sges = SGEList.of(self.sges)

    @property
    def byte_len(self) -> int:
        sges = self.sges
        size = sges.nbytes if isinstance(sges, SGEList) else sum(s.length for s in sges)
        return size + self.extra_bytes

    def validate(self) -> None:
        if len(self.sges) > MAX_SGE:
            raise SimulationError(
                f"{len(self.sges)} SGEs exceeds the {MAX_SGE}-entry limit"
            )
        if self.opcode is Opcode.RDMA_WRITE_IMM and self.imm is None:
            raise SimulationError("RDMA_WRITE_IMM requires immediate data")
        if self.opcode is Opcode.SEND and (self.remote_addr or self.rkey):
            raise SimulationError("SEND does not take a remote address")


class WriteList:
    """A list of single-SGE RDMA writes as parallel int64 arrays, as
    :class:`SGEList` is the array form of a gather list: member ``i`` reads
    ``[src[i], +lengths[i])`` under ``lkeys[i]``, writes it at ``dst[i]``
    under ``rkeys[i]`` and has ``wr_id`` ``(owner, first + i)``.

    All but the last are plain unsignaled ``RDMA_WRITE``s and stay arrays
    from the post to the landing; :attr:`last` is a real :class:`SendWR`
    the caller may upgrade (immediate, completion) before posting, as long
    as it stays an RDMA write.  Iterating yields exactly the descriptors
    the list stands for — what a one-by-one post, a node with an enabled
    fault plan and the tests' oracle consume.
    """

    __slots__ = ("src", "dst", "lengths", "lkeys", "rkeys", "wr_id", "last")

    #: what every member before the last is (read by ``HCA._folds``)
    opcode = Opcode.RDMA_WRITE
    signaled = False

    def __init__(
        self, pieces: tuple[np.ndarray, np.ndarray, np.ndarray],
        lkeys: np.ndarray, rkeys: np.ndarray, wr_id: tuple[int, int],
    ):
        self.src, self.dst, self.lengths = pieces
        self.lkeys, self.rkeys, self.wr_id = lkeys, rkeys, wr_id
        self.last = self._write(len(self) - 1, *(a.item(-1) for a in self._columns()))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.src, self.lengths, self.lkeys, self.dst, self.rkeys

    def _write(self, i: int, src: int, length: int, lkey: int, dst: int, rkey: int):
        owner, first = self.wr_id
        return SendWR(
            Opcode.RDMA_WRITE, sges=[SGE(src, length, lkey)], remote_addr=dst,
            rkey=rkey, wr_id=(owner, first + i), signaled=False,
        )

    def members(self, lo: int, hi: int) -> Iterator[SendWR]:
        """Members ``[lo, hi)`` as fresh plain-write descriptors."""
        rows = zip(*(a[lo:hi].tolist() for a in self._columns()))
        return (self._write(i, *row) for i, row in enumerate(rows, lo))

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self) -> Iterator[SendWR]:
        # built at once: a descriptor made between two events is made cold
        return iter([*self.members(0, len(self) - 1), self.last])


@dataclass(frozen=True)
class RecvWR:
    """A receive-queue work request: where inbound SEND data lands.

    Immutable (a tuple of frozen SGEs), so one descriptor object can stand
    for every identical entry of a pre-posted pool — see
    :meth:`QueuePair.post_recv_nocost`.
    """

    sges: Sequence[SGE] = ()
    wr_id: Any = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sges", tuple(self.sges))

    @property
    def byte_len(self) -> int:
        return sum(sge.length for sge in self.sges)


@dataclass(frozen=True)
class Completion:
    """A completion-queue entry."""

    wr_id: int
    opcode: Opcode
    byte_len: int
    imm: Optional[int] = None
    src_qp: int = 0
    payload: object = None
    is_recv: bool = False
    #: "ok" for a successful completion; fault injection surfaces
    #: transport-level failures that exhausted their retry budget as
    #: error CQEs ("transport_retry_exceeded", "rnr_retry_exceeded", ...)
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class CompletionQueue:
    """A CQ: a FIFO of :class:`Completion` entries.

    ``wait()`` returns an event for the next entry (charging the poll cost
    is up to the caller; the MPI progress engine accounts for it).
    """

    def __init__(self, hca: "HCA", name: str = ""):
        self.hca = hca
        self.name = name
        self._store = Store(hca.sim, name=name, node=hca.node_id)
        self._completions = hca.node.metrics.counter(
            "ib.cq_completions", hca.node_id
        )

    def push(self, completion: Completion) -> None:
        self._completions.inc()
        self._store.put(completion)

    def wait(self) -> Event:
        """Event for the next CQE (FIFO)."""
        return self._store.get()

    def take(self):
        """``yield from`` form of :meth:`wait` (see :meth:`Store.take`)."""
        return self._store.take()

    def poll(self) -> Optional[Completion]:
        """Non-blocking poll; None when empty."""
        return self._store.try_get()

    def __len__(self) -> int:
        return len(self._store)


class _RecvQueue:
    """FIFO of posted receive descriptors, run-length encoded.

    Each entry is ``[descriptor, remaining]``: posting the same (immutable)
    descriptor object again extends the tail run, so a pool of ``depth``
    identical descriptors — and its steady-state consume/repost cycle —
    is one entry, not ``depth`` objects; so is an iterator of distinct
    descriptors (:meth:`QueuePair.post_recv_slots`).  Quacks like a named
    :class:`~repro.simulator.Store` for ``Tracer.sample_store``.
    """

    def __init__(self, sim, name: str, node: int):
        self.sim = sim
        self.name = name
        self.node = node
        self._runs: deque[list] = deque()
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def put(self, wr: RecvWR | Iterator[RecvWR], count: int = 1) -> None:
        runs = self._runs
        if runs and runs[-1][0] is wr:
            runs[-1][1] += count
        else:
            runs.append([wr, count])
        self._depth += count
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.sample_store(self)

    def try_get(self) -> Optional[RecvWR]:
        """Pop the oldest descriptor; None when empty."""
        if not self._depth:
            return None
        run = self._runs[0]
        run[1] -= 1
        if not run[1]:
            self._runs.popleft()
        self._depth -= 1
        wr = run[0]
        return wr if type(wr) is RecvWR else next(wr)


class QueuePair:
    """A reliable-connection queue pair.

    Created via :meth:`repro.ib.hca.HCA.create_qp` and wired to its peer by
    :meth:`repro.ib.fabric.Fabric.connect`.  Send descriptors are processed
    in FIFO order by the owning HCA's send engine; receive descriptors are
    consumed in FIFO order by inbound SEND / RDMA_WRITE_IMM traffic.
    """

    def __init__(self, hca: "HCA", send_cq: CompletionQueue, recv_cq: CompletionQueue):
        hca.sim.qp_serial += 1
        self.qp_num = hca.sim.qp_serial
        self.hca = hca
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.peer: Optional["QueuePair"] = None
        self._recv_queue = _RecvQueue(
            hca.sim, name=f"qp{self.qp_num}.rq", node=hca.node_id
        )
        #: inbound ``(wr, data)`` of silent RDMA writes the peer's HCA has
        #: injected but not landed: they land, in order, with the next
        #: arrival on this QP (see ``HCA._inject``)
        self.pending_landings: list = []
        #: state machine (RESET until Fabric.connect promotes to RTS)
        self.state = QPState.RESET
        #: transport retries performed for this QP's descriptors
        self.retries = 0
        #: RNR NAKs absorbed (each costs an rnr_timer wait)
        self.rnr_naks = 0
        #: times the QP fell to SQE/ERR and needed a full recovery
        self.hard_failures = 0
        #: simulated time of the most recent hard failure (scheme fallback
        #: cooldown is measured from here)
        self.last_hard_failure_us = float("-inf")
        #: counters for tests / stats
        self.posted_sends = 0
        self.posted_recvs = 0
        metrics = hca.node.metrics
        self._sends_metric = metrics.counter("ib.sends_posted", hca.node_id)
        self._recvs_metric = metrics.counter("ib.recvs_posted", hca.node_id)
        self._list_posts_metric = metrics.counter("ib.list_posts", hca.node_id)

    # -- receive side ---------------------------------------------------

    def post_recv(self, wr: RecvWR):
        """Post a receive descriptor (CPU cost charged on the node).

        Generator; yield from it inside a simulated process.
        """
        for sge in wr.sges:
            self.hca.memory.check_local(sge.addr, sge.length, sge.lkey)
        yield from self.hca.node.cpu_work(self.hca.cm.post_descriptor, "post_recv")
        self._recv_queue.put(wr)
        self.posted_recvs += 1
        self._recvs_metric.inc()

    def post_recv_nocost(self, wr: RecvWR, count: int = 1) -> None:
        """Post ``count`` copies of a receive descriptor without charging
        CPU time.

        Used for pre-posted receive pools set up during MPI_Init, whose
        cost is outside all measured intervals.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        for sge in wr.sges:
            self.hca.memory.check_local(sge.addr, sge.length, sge.lkey)
        self._recv_queue.put(wr, count)
        self.posted_recvs += count
        self._recvs_metric.inc(count)

    def post_recv_slots(self, addr: int, size: int, count: int, lkey: int, tag: tuple):
        """:meth:`post_recv_nocost` of one descriptor per ``size``-byte slot
        of the ``count`` from ``addr``, in address order, ``wr_id`` ``(*tag,
        slot)``: one check covers the slots, one run holds them, and each
        descriptor is made as it is consumed."""
        self.hca.memory.check_local(addr, count * size, lkey)
        slots = range(addr, addr + count * size, size)
        wrs = (RecvWR((SGE(a, size, lkey),), (*tag, a)) for a in slots)
        self._recv_queue.put(wrs, count)
        self.posted_recvs += count
        self._recvs_metric.inc(count)

    def _consume_recv(self) -> RecvWR:
        wr = self._recv_queue.try_get()
        if wr is None:
            raise SimulationError(
                f"qp{self.qp_num}: inbound message found no posted receive "
                "descriptor (receiver-not-ready)"
            )
        return wr

    # -- send side ---------------------------------------------------------

    def post_send(self, wr: SendWR):
        """Post one send descriptor (standard interface).

        Generator: charges the single-post CPU cost, validates local SGEs,
        then enqueues the descriptor to the HCA send engine.
        """
        self._validate_send(wr)
        yield from self.hca.node.cpu_work(self.hca.cm.post_time(1), "post_send")
        self.hca.enqueue_send(self, wr)
        self.posted_sends += 1
        self._sends_metric.inc()

    def post_send_list(self, wrs: Sequence[SendWR]):
        """Post a chain of descriptors in one call (extended interface).

        Charges the amortized list-post CPU cost; descriptors enter the
        send queue in order.  A :class:`WriteList` whose sources lie in
        their regions, on a node with no enabled fault plan, stays arrays;
        otherwise it is the descriptors it iterates to, and the first
        offender in list order raises.
        """
        hca = self.hca
        inj = hca.node.fault_injector
        arrays = (
            type(wrs) is WriteList
            and not (inj is not None and inj.enabled)
            and wrs.last.opcode in RDMA_WRITES
        )
        if arrays and len(wrs) > 1:  # (a list of one is its last descriptor)
            sources = SGEList(wrs.src, wrs.lengths, wrs.lkeys)
            arrays = sources.inside(hca.memory.check_local)
        if not arrays:
            wrs = list(wrs)
        for wr in (wrs.last,) if arrays else wrs:
            self._validate_send(wr)
        yield from hca.node.cpu_work(
            hca.cm.post_time(len(wrs), list_post=True), "post_send_list"
        )
        self._list_posts_metric.inc()
        if arrays:
            hca.enqueue_list(self, wrs)
        else:
            for wr in wrs:
                hca.enqueue_send(self, wr)
        self.posted_sends += len(wrs)
        self._sends_metric.inc(len(wrs))

    def _validate_send(self, wr: SendWR) -> None:
        wr.validate()
        if self.peer is None:
            raise SimulationError(f"qp{self.qp_num} is not connected")
        sges = wr.sges.hulls() if isinstance(wr.sges, SGEList) else wr.sges
        for addr, length, lkey in sges:
            self.hca.memory.check_local(addr, length, lkey)

    # -- error handling ---------------------------------------------------

    def set_error(self, state: QPState = QPState.SQE) -> None:
        """Drop the QP to an error state (send side).

        Records the hard failure for the scheme selector's fallback
        heuristic; the HCA send engine performs the actual recovery
        (SQE/ERR → RTS) before touching the queue again.
        """
        self.state = state
        self.hard_failures += 1
        self.last_hard_failure_us = self.hca.sim.now
        metrics = self.hca.node.metrics
        metrics.counter("qp.hard_failures", self.hca.node_id).inc()

    def __repr__(self) -> str:  # pragma: no cover
        peer = self.peer.qp_num if self.peer else None
        return f"<QP {self.qp_num} node={self.hca.node_id} peer={peer}>"
