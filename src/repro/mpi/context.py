"""Per-rank MPI context: point-to-point protocols and the progress engine.

Structure (mirroring MVAPICH, Section 3.1):

* Each rank owns two queue pairs per peer: a **control QP** (protocol
  headers, rendezvous control, RDMA operations and their immediate-data
  notifications) and a **data QP** (eager payload, landing in pre-posted
  internal slot buffers).  Both feed a single receive CQ drained by the
  rank's *progress engine*; all send completions feed a single send CQ
  drained by a *send-completion dispatcher*.
* **Eager protocol** (payload <= ``eager_threshold``): the sender packs
  into a pre-registered send slot and SENDs; data lands in a receiver
  slot; the progress engine matches and unpacks into the user buffer.
  The paper's optimized path (Section 7.1) packs/unpacks directly
  between user buffers and the internal slots; the Generic scheme stages
  through an extra pack/unpack buffer on each side (Figure 1 top).
* **Rendezvous protocol** (larger): the sender's scheme sends a
  ``RndvStart``; the receiver's progress engine matches it and spawns the
  scheme's receiver side; they exchange ``RndvReply``/data/notification
  per the scheme (Sections 4, 5, 7).
* **Flow control**: eager sends consume per-destination credits; the
  receiver returns credits in batches as it recycles slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.datatypes.base import Datatype
from repro.datatypes.pack import pack_bytes, unpack_bytes
from repro.datatypes.segment import SegmentCursor
from repro.ib.verbs import Opcode, RecvWR, SGE, SendWR
from repro.mpi import collectives
from repro.mpi.matching import ANY_TAG, MatchEngine
from repro.mpi.messages import (
    CTRL_HEADER_BYTES,
    Credit,
    EagerHeader,
    RingCredit,
    RndvReply,
    RndvStart,
)
from repro.mpi.errors import RankError, TruncationError
from repro.mpi.requests import Request
from repro.mpi.datatype_cache import DatatypeCache, ReceiverTypeRegistry
from repro.registration import RegistrationCache
from repro.simulator import Event, SimulationError, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import Cluster

__all__ = ["ANY_TAG", "RankContext", "SimArray"]

#: eager receive slots pre-posted per peer connection
EAGER_SLOTS_PER_PEER = 64
#: dataless control receive descriptors pre-posted per ctrl QP and
#: replenished by the progress engine as they are consumed.  The depth
#: covers a deep rendezvous burst (e.g. a 100-message bandwidth window,
#: each with per-segment notifications) because the replenishment lags by
#: the progress engine's CPU scheduling.
CTRL_RECVS_PER_PEER = 4096
#: global eager send slots per rank
EAGER_SEND_SLOTS = 128
#: credits returned per flow-control message
CREDIT_BATCH = 16
#: RDMA-eager ring slots per directed pair (Liu et al. [19] style)
EAGER_RDMA_RING = 32
#: freed ring slots returned per RingCredit message
RING_CREDIT_BATCH = 8
#: maximum rendezvous receives serviced concurrently per rank — real
#: implementations bound outstanding rendezvous operations to bound
#: pinned staging memory; later starts wait their turn, which paces
#: unpack-buffer acquisition against release (the effect Figure 12
#: measures)
RNDV_RECV_LIMIT = 32


@dataclass
class SimArray:
    """A typed user buffer in simulated memory."""

    addr: int
    array: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.array.nbytes


class _PersistentOp:
    """A persistent point-to-point operation (MPI_Send_init family).

    ``start()`` launches one instance; the segment cursor built for the
    first start is shared by all later ones (persistent requests exist to
    amortize exactly this per-operation setup).
    """

    def __init__(self, ctx, kind, addr, datatype, count, peer, tag):
        self.ctx = ctx
        self.kind = kind
        self.addr = addr
        self.datatype = datatype
        self.count = count
        self.peer = peer
        self.tag = tag
        self._cursor = None
        self.active: Optional[Request] = None

    def start(self):
        """Launch one instance (generator returning the active Request)."""
        if self.active is not None and not self.active.completed:
            raise SimulationError("persistent request started while active")
        if self.kind == "send":
            req = yield from self.ctx.isend(
                self.addr, self.datatype, self.count, self.peer, self.tag
            )
        else:
            req = yield from self.ctx.irecv(
                self.addr, self.datatype, self.count, self.peer, self.tag
            )
        if self._cursor is None:
            self._cursor = req.cursor  # build once
        else:
            req._cursor = self._cursor  # reuse across starts
        self.active = req
        return req

    def wait(self):
        """Wait for the active instance (generator)."""
        if self.active is None:
            raise SimulationError("persistent request never started")
        yield from self.ctx.wait(self.active)


class _Envelope:
    """Matching-side wrapper for inbound messages (eager or rndv start)."""

    __slots__ = ("src", "tag", "kind", "header", "slot")

    def __init__(self, src, tag, kind, header, slot=None):
        self.src = src
        self.tag = tag
        self.kind = kind  # "eager" | "rndv" | "self"
        self.header = header
        self.slot = slot  # (peer, slot_addr) for eager


class RankContext:
    """The ``mpi`` handle a rank program receives."""

    def __init__(self, cluster: "Cluster", rank: int, node):
        self.cluster = cluster
        self.rank = rank
        self.node = node
        self.sim = node.sim
        self.cm = node.cm
        self.nranks = cluster.nranks
        self.matching = MatchEngine()
        self._buffer_hints: list[tuple[int, int, bool]] = []
        self.reg_cache = RegistrationCache(
            node, cluster.reg_cache_bytes, hint_fn=self.buffer_hint
        )
        self.metrics = node.metrics
        self.dt_cache = DatatypeCache(metrics=self.metrics, node=rank)
        self.type_registry = ReceiverTypeRegistry(
            metrics=self.metrics, node=rank
        )
        self._eager_sends_metric = self.metrics.counter("mpi.eager_sends", rank)
        self._rndv_sends_metric = self.metrics.counter("mpi.rndv_sends", rank)
        self._unexpected_gauge = self.metrics.gauge("mpi.unexpected_depth", rank)
        self._msg_seq = 0
        self._send_seq = 0
        self._wr_seq = 0
        #: msg_id -> Store of inbound rendezvous control for that message
        self._msg_inbox: dict[int, Store] = {}
        #: wr_id -> Event resolved by the send-completion dispatcher
        self._send_events: dict[object, Event] = {}
        self._schemes: dict[str, object] = {}
        # wired by _setup_network
        self.ctrl_qps: dict[int, object] = {}
        self.data_qps: dict[int, object] = {}
        self._qp_rank: dict[int, int] = {}
        self._credits: dict[int, Store] = {}
        self._slot_free_count: dict[int, int] = {}
        self._send_slot_tokens: Optional[Store] = None
        self._slot_size = max(cluster.cm.eager_threshold, 1024)
        # staging buffers for the Generic eager path (grown on demand)
        self._eager_stage_addr = 0
        self._eager_stage_size = 0
        from repro.simulator import Resource

        self._rndv_recv_slots = Resource(
            self.sim, capacity=RNDV_RECV_LIMIT, name=f"rndv{rank}", node=rank
        )
        # RDMA-eager rings (when cluster.eager_rdma): inbound ring
        # metadata per peer, outbound free-slot tokens per peer
        self._ring_in: dict[int, tuple] = {}
        self._ring_out: dict[int, Store] = {}
        self._ring_rkey: dict[int, int] = {}
        self._ring_free_pending: dict[int, list] = {}
        # RMA window locks this rank serves as target
        self._window_locks: dict[int, object] = {}
        self._win_lock_held: dict[tuple, int] = {}
        # MPI non-overtaking: per-destination send sequence numbers and
        # per-source admission state.  Envelopes can physically arrive
        # out of order (a rendezvous start posts immediately; an earlier
        # eager send first does staging CPU work), so the progress engine
        # admits them to matching strictly in sequence — exactly the PSN
        # mechanism real implementations use.
        self._dst_seq: dict[int, int] = {}
        self._recv_expected: dict[int, int] = {}
        self._recv_ooo: dict[int, dict[int, "_Envelope"]] = {}
        # processes blocked in probe(), woken on every unexpected arrival
        self._probe_waiters: list[Event] = []
        # fault recovery: replies recorded so a duplicate (retransmitted)
        # rendezvous start can be answered again, and reply dedup so a
        # retransmitted reply is delivered to the sender at most once.
        # Both are only populated while fault injection is active.
        self._rndv_replies: dict[int, tuple[int, object, int]] = {}
        self._rndv_reply_seen: set[int] = set()

    # ------------------------------------------------------------------
    # setup (called by Cluster during "MPI_Init"; no simulated time)
    # ------------------------------------------------------------------

    def _setup_network(self, contexts: Sequence["RankContext"]) -> None:
        hca = self.node.hca
        self._send_cq = hca.create_cq(f"r{self.rank}.send")
        self._recv_cq = hca.create_cq(f"r{self.rank}.recv")
        for peer_ctx in contexts:
            if peer_ctx.rank == self.rank:
                continue
            self._credits[peer_ctx.rank] = Store(
                self.sim, items=[1] * EAGER_SLOTS_PER_PEER
            )
            self._slot_free_count[peer_ctx.rank] = 0

    def _connect(self, peer_ctx: "RankContext", fabric) -> None:
        """Create and connect the ctrl/data QP pairs toward ``peer_ctx``.

        Called once per unordered rank pair (by the Cluster).
        """
        for kind in ("ctrl", "data"):
            qp_a = self.node.hca.create_qp(self._send_cq, self._recv_cq)
            qp_b = peer_ctx.node.hca.create_qp(peer_ctx._send_cq, peer_ctx._recv_cq)
            fabric.connect(qp_a, qp_b)
            if kind == "ctrl":
                self.ctrl_qps[peer_ctx.rank] = qp_a
                peer_ctx.ctrl_qps[self.rank] = qp_b
            else:
                self.data_qps[peer_ctx.rank] = qp_a
                peer_ctx.data_qps[self.rank] = qp_b
            # map both local and remote QP numbers to the peer rank: CQEs
            # report the *sender's* QP number in src_qp
            self._qp_rank[qp_a.qp_num] = peer_ctx.rank
            self._qp_rank[qp_b.qp_num] = peer_ctx.rank
            peer_ctx._qp_rank[qp_b.qp_num] = self.rank
            peer_ctx._qp_rank[qp_a.qp_num] = self.rank

    def _setup_buffers(self) -> None:
        """Pre-post eager receive slots and carve out send slots."""
        mem = self.node.memory
        # receive slots, per peer data QP
        self._recv_slot_mr = {}
        for peer, qp in self.data_qps.items():
            region = mem.alloc_undefined(EAGER_SLOTS_PER_PEER * self._slot_size)
            mr = mem.register(region, EAGER_SLOTS_PER_PEER * self._slot_size)
            self._recv_slot_mr[peer] = mr
            qp.post_recv_slots(
                region, self._slot_size, EAGER_SLOTS_PER_PEER, mr.lkey, ("slot", peer)
            )
        # control receive descriptors (no data) on ctrl QPs: one shared
        # descriptor per peer, posted (and later reposted) by count
        self._ctrl_recv_wr: dict[int, RecvWR] = {}
        for peer, qp in self.ctrl_qps.items():
            wr = self._ctrl_recv_wr[peer] = RecvWR(wr_id=("ctrl", peer))
            qp.post_recv_nocost(wr, CTRL_RECVS_PER_PEER)
        # send slots (shared across destinations)
        size = EAGER_SEND_SLOTS * self._slot_size
        region = mem.alloc_undefined(size)
        self._send_slot_region_mr = mem.register(region, size)
        self._send_slot_tokens = Store(
            self.sim, items=range(region, region + size, self._slot_size)
        )
        # RDMA-eager rings: this rank's inbound slots per peer (the
        # address/rkey advertisement is exchanged by the Cluster)
        if self.cluster.eager_rdma:
            for peer in self.data_qps:
                region = mem.alloc_undefined(EAGER_RDMA_RING * self._slot_size)
                mr = mem.register(region, EAGER_RDMA_RING * self._slot_size)
                slots = [region + i * self._slot_size for i in range(EAGER_RDMA_RING)]
                self._ring_in[peer] = (mr, slots)
                self._ring_free_pending[peer] = []
        # progress engines
        self.sim.process(self._progress_engine(), name=f"progress{self.rank}")
        self.sim.process(self._send_dispatcher(), name=f"sendcq{self.rank}")

    def _exchange_rings(self, contexts) -> None:
        """Learn peers' inbound rings (MPI_Init-time exchange)."""
        for peer_ctx in contexts:
            if peer_ctx.rank == self.rank:
                continue
            mr, slots = peer_ctx._ring_in[self.rank]
            self._ring_rkey[peer_ctx.rank] = mr.rkey
            self._ring_out[peer_ctx.rank] = Store(self.sim, items=slots)

    # ------------------------------------------------------------------
    # public API: memory
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in microseconds (MPI_Wtime)."""
        return self.sim.now

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Allocate an application buffer (setup-time, not charged)."""
        return self.node.memory.alloc(nbytes, align)

    def alloc_array(self, shape, dtype) -> SimArray:
        """Allocate a typed application array (setup-time, not charged)."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize
        addr = self.node.memory.alloc(max(nbytes, 1), align=dt.itemsize or 1)
        return SimArray(addr, self.node.memory.view_as(addr, tuple(shape), dt))

    # ------------------------------------------------------------------
    # public API: persistent requests (MPI_Send_init / MPI_Recv_init)
    # ------------------------------------------------------------------

    def send_init(self, addr, datatype, count, dest, tag):
        """Create a persistent send request (not a generator).

        The datatype cursor — the expensive part of request setup — is
        built once and shared by every start."""
        return _PersistentOp(self, "send", addr, datatype, count, dest, tag)

    def recv_init(self, addr, datatype, count, source, tag):
        """Create a persistent receive request (not a generator)."""
        return _PersistentOp(self, "recv", addr, datatype, count, source, tag)

    def startall(self, ops):
        """Start several persistent operations (generator returning the
        active Requests, in order)."""
        reqs = []
        for op in ops:
            req = yield from op.start()
            reqs.append(req)
        return reqs

    def comm_split(self, color, key: int = 0):
        """Collective MPI_Comm_split (generator returning a
        :class:`~repro.mpi.communicator.Communicator` or None)."""
        from repro.mpi.communicator import comm_split

        comm = yield from comm_split(self, color, key)
        return comm

    # ------------------------------------------------------------------
    # public API: one-sided communication (MPI-2 RMA)
    # ------------------------------------------------------------------

    def win_create(self, base, size):
        from repro.mpi.rma import win_create

        win = yield from win_create(self, base, size)
        return win

    def put(self, win, target_rank, origin_addr, origin_dt, origin_count=1,
            target_disp=0, target_dt=None, target_count=None):
        from repro.mpi.rma import put

        yield from put(self, win, target_rank, origin_addr, origin_dt,
                       origin_count, target_disp, target_dt, target_count)

    def get(self, win, target_rank, origin_addr, origin_dt, origin_count=1,
            target_disp=0, target_dt=None, target_count=None):
        from repro.mpi.rma import get

        yield from get(self, win, target_rank, origin_addr, origin_dt,
                       origin_count, target_disp, target_dt, target_count)

    def win_fence(self, win):
        from repro.mpi.rma import fence

        yield from fence(self, win)

    def win_lock(self, win, target_rank, exclusive=True):
        from repro.mpi.rma import lock

        yield from lock(self, win, target_rank, exclusive)

    def win_unlock(self, win, target_rank):
        from repro.mpi.rma import unlock

        yield from unlock(self, win, target_rank)

    def _win_locks(self, win_id: int):
        """Per-window lock resource on this (target) rank."""
        from repro.simulator import Resource

        res = self._window_locks.get(win_id)
        if res is None:
            res = Resource(self.sim, capacity=1, name=f"winlock{win_id}@{self.rank}")
            self._window_locks[win_id] = res
        return res

    def _serve_lock(self, req):
        """Grant a remote lock request when the window lock frees up."""
        grant = yield from self._win_locks(req.win_id).take()
        self._win_lock_held[(req.origin, req.win_id)] = grant
        from repro.mpi.rma import _LockGrant

        yield from self.ctrl_send(req.origin, _LockGrant(req.msg_id))

    # ------------------------------------------------------------------
    # public API: buffer usage hints (the paper's MPI_Info suggestion)
    # ------------------------------------------------------------------

    def set_buffer_hint(self, addr: int, length: int, *, reuse: bool) -> None:
        """Declare a buffer's reuse pattern (Section 6).

        "It is also helpful if we can make use of MPI_Info objects to
        notify the MPI implementation of buffers on which the application
        has many communication operations.  This can help to decide
        whether to register these buffers or not."

        ``reuse=True`` marks a long-lived communication buffer (worth
        pinning and caching); ``reuse=False`` marks a one-shot buffer —
        the registration cache will not retain its regions and the
        adaptive selector avoids registration-heavy schemes for it.
        The most recent hint covering a range wins.
        """
        if length <= 0:
            raise ValueError("hint length must be positive")
        self._buffer_hints.append((addr, length, bool(reuse)))

    def buffer_hint(self, addr: int, length: int):
        """The effective reuse hint for [addr, addr+length), or None."""
        for haddr, hlen, reuse in reversed(self._buffer_hints):
            if haddr <= addr and addr + length <= haddr + hlen:
                return reuse
        return None

    def user_pack(self, addr: int, datatype: Datatype, count: int, dest_addr: int):
        """Application-level manual packing (generator): copy the data
        blocks of (datatype, count) at ``addr`` into the contiguous buffer
        at ``dest_addr``, charging the CPU.  Models the paper's "Manual"
        strategy (Section 3.2), where the programmer packs by hand and
        sends contiguous data."""
        cur = SegmentCursor(datatype, count)
        nblocks = pack_bytes(self.node.memory, addr, cur, 0, cur.total, dest_addr)
        yield from self.charge_pack(cur.total, nblocks, "user-pack")

    def user_unpack(self, addr: int, datatype: Datatype, count: int, src_addr: int):
        """Application-level manual unpacking (generator); see
        :meth:`user_pack`."""
        cur = SegmentCursor(datatype, count)
        nblocks = unpack_bytes(self.node.memory, addr, cur, 0, cur.total, src_addr)
        yield from self.charge_pack(cur.total, nblocks, "user-unpack")

    # ------------------------------------------------------------------
    # public API: point-to-point
    # ------------------------------------------------------------------

    def isend(self, addr: int, datatype: Datatype, count: int, dest: int, tag: int):
        """Nonblocking send (generator returning a Request)."""
        if not 0 <= dest < self.nranks:
            raise RankError(f"bad destination rank {dest}")
        req = self._make_request("send", dest, tag, addr, datatype, count)
        if dest == self.rank:
            self.sim.process(self._self_send(req), name=f"selfsend{self.rank}")
            return req
        # per-destination stream sequence (MPI non-overtaking)
        self._dst_seq[dest] = self._dst_seq.get(dest, 0) + 1
        req.seq = self._dst_seq[dest]
        if req.nbytes <= self.cm.eager_threshold:
            self._eager_sends_metric.inc()
            self.sim.process(self._eager_send(req), name=f"eager{self.rank}")
        else:
            self._rndv_sends_metric.inc()
            scheme = self.cluster.choose_scheme(self, req)
            self._msg_inbox[req.msg_id] = Store(self.sim)
            self.sim.process(
                self._run_sender(scheme, req), name=f"rndv_s{self.rank}"
            )
        return req
        yield  # pragma: no cover - marks this as a generator for symmetry

    def irecv(self, addr: int, datatype: Datatype, count: int, source: int, tag: int):
        """Nonblocking receive (generator returning a Request)."""
        if not 0 <= source < self.nranks:
            raise RankError(f"bad source rank {source}")
        req = self._make_request("recv", source, tag, addr, datatype, count)
        envelope = self.matching.post_recv(req)
        if envelope is not None:
            self._unexpected_gauge.set(len(self.matching._unexpected))
            self._dispatch_matched(req, envelope)
        return req
        yield  # pragma: no cover

    def send(self, addr, datatype, count, dest, tag):
        """Blocking send (generator)."""
        req = yield from self.isend(addr, datatype, count, dest, tag)
        yield from self.wait(req)

    def recv(self, addr, datatype, count, source, tag):
        """Blocking receive (generator returning the completed Request)."""
        req = yield from self.irecv(addr, datatype, count, source, tag)
        yield from self.wait(req)
        return req

    def wait(self, req: Request):
        """Wait for one request (generator)."""
        yield req.done

    def waitall(self, reqs: Sequence[Request]):
        """Wait for all requests (generator)."""
        yield self.sim.all_of([r.done for r in reqs])

    def waitany(self, reqs: Sequence[Request]):
        """Wait for any request; returns (index, request) (generator)."""
        ev, _value = yield self.sim.any_of([r.done for r in reqs])
        for i, r in enumerate(reqs):
            if r.done is ev:
                return i, r
        raise SimulationError("waitany: no request matched")  # pragma: no cover

    def iprobe(self, source: int, tag: int):
        """Non-blocking probe: the (src, tag) of a matching unexpected
        message, or None.  Not a generator — costs no simulated time,
        like a real MPI_Iprobe fast path."""
        for envelope in self.matching._unexpected:
            if envelope.src == source and (tag == ANY_TAG or envelope.tag == tag):
                return envelope.src, envelope.tag
        return None

    def probe(self, source: int, tag: int):
        """Blocking probe (generator): waits until a matching message is
        queued, without receiving it.  Returns (src, tag)."""
        while True:
            hit = self.iprobe(source, tag)
            if hit is not None:
                return hit
            ev = self.sim.event()
            self._probe_waiters.append(ev)
            yield ev

    # collectives live in repro.mpi.collectives as functions whose first
    # parameter is the context; bound here, they are its methods
    barrier = collectives.barrier
    alltoall = collectives.alltoall
    alltoallv = collectives.alltoallv
    bcast = collectives.bcast
    allgather = collectives.allgather
    gather = collectives.gather
    scatter = collectives.scatter
    reduce = collectives.reduce
    allreduce = collectives.allreduce

    # ------------------------------------------------------------------
    # scheme / pool access
    # ------------------------------------------------------------------

    def get_scheme(self, name: str):
        """Per-rank scheme instance (lazily constructed)."""
        if name not in self._schemes:
            from repro.schemes import make_scheme

            self._schemes[name] = make_scheme(name, self)
        return self._schemes[name]

    def _segment_pool(self, kind: str):
        from repro.schemes.buffers import SegmentPool

        return SegmentPool(
            self.node,
            self.cm.pool_size,
            self.cm.segment_size,
            enabled=self.cluster.staging_pools,
            name=f"{kind}{self.rank}",
        )

    @cached_property
    def pack_pool(self):
        """Pre-registered pack segment pool (built on first use)."""
        return self._segment_pool("pack")

    @cached_property
    def unpack_pool(self):
        """Pre-registered unpack segment pool (built on first use)."""
        return self._segment_pool("unpack")

    # ------------------------------------------------------------------
    # rendezvous plumbing used by the schemes
    # ------------------------------------------------------------------

    def new_wr_id(self, count: int = 1) -> tuple:
        """The first of ``count`` consecutive work-request ids."""
        first = self._wr_seq + 1
        self._wr_seq += count
        return (self.rank, first)

    def send_completion(self, wr_id) -> Event:
        """Event that fires when the send WR with ``wr_id`` completes."""
        ev = self.sim.event()
        self._send_events[wr_id] = ev
        return ev

    def ctrl_send(self, dest: int, payload, nbytes: int = CTRL_HEADER_BYTES):
        """Send a control message (generator).  ``nbytes`` models the
        header size on the wire."""
        qp = self.ctrl_qps[dest]
        yield from self.node.cpu_work(self.cm.control_overhead, "ctrl")
        yield from qp.post_send(
            SendWR(Opcode.SEND, payload=payload, extra_bytes=nbytes, signaled=False)
        )

    @property
    def faults_active(self) -> bool:
        """True when this node carries an enabled fault injector."""
        inj = self.node.fault_injector
        return inj is not None and inj.enabled

    def rdma_healthy(self, peer: int) -> bool:
        """False while the control QP toward ``peer`` is inside the
        hard-failure fallback window (see
        :func:`repro.schemes.selector.apply_fault_fallback`)."""
        qp = self.ctrl_qps.get(peer)
        if qp is None or qp.hard_failures < self.cm.fallback_hard_failures:
            return True
        return (self.sim.now - qp.last_hard_failure_us) > self.cm.fallback_cooldown_us

    def rndv_await_reply(self, req, start, nbytes: int = CTRL_HEADER_BYTES):
        """Wait for the rendezvous reply to ``start`` (generator).

        The fault-free path reduces to a plain inbox get.  With faults
        active the wait is guarded by a timeout: on expiry the start is
        retransmitted — idempotent, because the receiver admits envelopes
        by sequence number and answers a duplicate start by re-sending its
        recorded reply — and the timeout doubles, capped at 16x.  The
        retransmit budget is soft: exhaustion is counted, not fatal, since
        a reply can be legitimately late (deep rendezvous backlog) and
        every retransmission remains safe.
        """
        inbox = self.msg_inbox(req.msg_id)
        if not self.faults_active:
            reply = yield from inbox.take()
            return reply
        timeouts = self.metrics.counter("rndv.timeouts", self.rank)
        retransmits = self.metrics.counter("rndv.retransmits", self.rank)
        attempt = 0
        while True:
            get_ev = inbox.get()
            timeout_us = self.cm.rndv_timeout_us * min(2.0**attempt, 16.0)
            timer = self.sim.timeout(timeout_us, tag="rndv-timeout")
            ev, value = yield self.sim.any_of([get_ev, timer])
            if ev is get_ev:
                timer.cancel()  # abandoned timer must not hold the clock
                return value
            if not inbox.cancel_get(get_ev):
                # the reply landed on the timeout's own timestamp
                reply = yield get_ev
                return reply
            attempt += 1
            timeouts.inc()
            if attempt > self.cm.rndv_retry_limit:
                self.metrics.counter("rndv.retry_exhausted", self.rank).inc()
            retransmits.inc()
            yield from self.ctrl_send(req.peer, start, nbytes=nbytes)

    def rndv_reply(self, start, reply, nbytes: int = CTRL_HEADER_BYTES):
        """Send a rendezvous reply (generator), recording it while faults
        are active so a duplicate (retransmitted) start can be answered
        again if this reply is lost on the wire."""
        if self.faults_active:
            self._rndv_replies[start.msg_id] = (start.src, reply, nbytes)
        yield from self.ctrl_send(start.src, reply, nbytes=nbytes)

    def msg_inbox(self, msg_id: int) -> Store:
        """Control-message inbox for a rendezvous message."""
        box = self._msg_inbox.get(msg_id)
        if box is None:
            box = Store(self.sim)
            self._msg_inbox[msg_id] = box
        return box

    def close_inbox(self, msg_id: int) -> None:
        self._msg_inbox.pop(msg_id, None)

    def charge_pack(
        self, nbytes: int, nblocks: int, tag: str = "pack", penalty: float = 1.0
    ):
        """Charge datatype-processing + copy CPU time, under current
        memory-bus contention (generator)."""
        start = self.sim.now
        yield from self.node.copy_work(nbytes, max(nblocks, 1), tag, penalty)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(start, self.sim.now, self.rank, tag)
        self.metrics.counter("scheme.copy_bytes", self.rank).inc(nbytes)
        self.metrics.counter("scheme.copy_blocks", self.rank).inc(max(nblocks, 1))

    # ------------------------------------------------------------------
    # internal: request bookkeeping
    # ------------------------------------------------------------------

    def _make_request(self, kind, peer, tag, addr, datatype, count) -> Request:
        self._msg_seq += 1
        if kind == "send":
            self._send_seq += 1
        return Request(
            kind=kind,
            rank=self.rank,
            peer=peer,
            tag=tag,
            addr=addr,
            datatype=datatype,
            count=count,
            done=self.sim.event(),
            msg_id=self.rank * 1_000_000 + self._msg_seq,
            seq=self._send_seq,
        )

    def _complete(self, req: Request, src: int = None, tag: int = None) -> None:
        req.status_src = src if src is not None else req.peer
        req.status_tag = tag if tag is not None else req.tag
        if not req.done.triggered:
            req.done.succeed(req, tag="complete")

    # ------------------------------------------------------------------
    # internal: self messages
    # ------------------------------------------------------------------

    def _self_send(self, req: Request):
        """Send-to-self: stage through a temporary packed buffer."""
        cur = SegmentCursor(req.datatype, req.count)
        tmp = self.node.memory.alloc_undefined(max(cur.total, 1))
        nblocks = pack_bytes(self.node.memory, req.addr, cur, 0, cur.total, tmp)
        yield from self.charge_pack(cur.total, nblocks)
        envelope = _Envelope(self.rank, req.tag, "self", (req, tmp))
        rreq = self.matching.arrive(envelope)
        self._complete(req)  # buffered: sender may reuse its buffer now
        if rreq is not None:
            yield from self._self_deliver(rreq, envelope)
        else:
            self._wake_probes()

    def _self_deliver(self, rreq: Request, envelope: _Envelope):
        sreq, tmp = envelope.header
        hi = sreq.nbytes
        self._check_fits(rreq, hi, sreq.tag)
        cur = rreq.cursor
        nblocks = unpack_bytes(self.node.memory, rreq.addr, cur, 0, hi, tmp)
        yield from self.charge_pack(hi, nblocks, "unpack")
        self.node.memory.free(tmp)
        self._complete(rreq, src=self.rank, tag=sreq.tag)

    # ------------------------------------------------------------------
    # internal: eager protocol
    # ------------------------------------------------------------------

    def _eager_send(self, req: Request):
        scheme = self.cluster.choose_scheme(self, req)
        cur = req.cursor
        nbytes = cur.total
        # the extra staging copies of the Generic path only exist for
        # noncontiguous data; contiguous eager data goes user->slot
        two_copy = getattr(scheme, "eager_two_copy", False) and cur.flat.nblocks > 1
        # flow control + slot acquisition; in RDMA-eager mode the free
        # ring-slot token IS the credit
        if self.cluster.eager_rdma:
            ring_addr = yield from self._ring_out[req.peer].take()
        else:
            yield from self._credits[req.peer].take()
        slot_addr = yield from self._send_slot_tokens.take()
        if two_copy:
            # Generic path (Figure 1): pack into a temporary buffer, then
            # copy into the eager internal buffer.
            # The stage is one buffer per rank, shared with
            # _eager_deliver: bytes go in and come out again before the
            # next yield, or a delivery progressing meanwhile overwrites
            # what this send is about to put on the wire.
            stage = yield from self._acquire_eager_stage(nbytes)
            nblocks = pack_bytes(self.node.memory, req.addr, cur, 0, nbytes, stage)
            self.node.memory.view(slot_addr, nbytes)[:] = self.node.memory.view(
                stage, nbytes
            )
            yield from self.charge_pack(nbytes, nblocks)
            yield from self.node.copy_work(nbytes, 0, "copy")
        else:
            # optimized path (Figure 7): pack straight into the slot
            nblocks = pack_bytes(self.node.memory, req.addr, cur, 0, nbytes, slot_addr)
            yield from self.charge_pack(nbytes, nblocks)
        header = EagerHeader(self.rank, req.tag, nbytes, req.seq)
        wr_id = self.new_wr_id()
        done = self.send_completion(wr_id)
        qp = self.data_qps[req.peer]
        sge = [SGE(slot_addr, nbytes, self._send_slot_region_mr.lkey)] if nbytes else []
        if self.cluster.eager_rdma:
            # the polled RDMA-eager channel [19]: write into the peer's
            # ring slot; no receive descriptor is involved
            yield from qp.post_send(
                SendWR(
                    Opcode.RDMA_WRITE_POLLED,
                    sges=sge,
                    remote_addr=ring_addr,
                    rkey=self._ring_rkey[req.peer],
                    payload=header,
                    extra_bytes=CTRL_HEADER_BYTES,
                    wr_id=wr_id,
                )
            )
        else:
            yield from qp.post_send(
                SendWR(
                    Opcode.SEND,
                    sges=sge,
                    payload=header,
                    extra_bytes=CTRL_HEADER_BYTES,
                    wr_id=wr_id,
                )
            )
        # eager sends are buffered: complete as soon as the data left the
        # user buffer (it is in the slot); recycle the slot on the CQE
        self._complete(req)
        yield done
        self._send_slot_tokens.put(slot_addr)

    def _acquire_eager_stage(self, nbytes: int):
        """Persistent staging buffer for the Generic eager path (grown on
        demand; growth pays malloc)."""
        if self._eager_stage_size < nbytes:
            if self._eager_stage_size:
                self.node.memory.free(self._eager_stage_addr)
            self._eager_stage_addr = yield from self.node.malloc(nbytes)
            self._eager_stage_size = nbytes
        return self._eager_stage_addr

    def _eager_deliver(self, rreq: Request, envelope: _Envelope):
        """Progress-engine side: unpack a matched eager message."""
        header: EagerHeader = envelope.header
        peer, slot_addr, slot_kind = envelope.slot
        nbytes = header.nbytes
        cur = rreq.cursor
        self._check_fits(rreq, nbytes, header.tag)
        scheme = self.get_scheme(self.cluster.scheme_name)
        two_copy = getattr(scheme, "eager_two_copy", False) and cur.flat.nblocks > 1
        if two_copy and nbytes:
            stage = yield from self._acquire_eager_stage(nbytes)
            self.node.memory.view(stage, nbytes)[:] = self.node.memory.view(
                slot_addr, nbytes
            )
            nblocks = unpack_bytes(self.node.memory, rreq.addr, cur, 0, nbytes, stage)
            yield from self.node.copy_work(nbytes, 0, "copy")
            yield from self.charge_pack(nbytes, nblocks, "unpack")
        elif nbytes:
            nblocks = unpack_bytes(
                self.node.memory, rreq.addr, cur, 0, nbytes, slot_addr
            )
            yield from self.charge_pack(nbytes, nblocks, "unpack")
        self._complete(rreq, src=header.src, tag=header.tag)
        if slot_kind == "poll":
            yield from self._recycle_ring_slot(peer, slot_addr)
        else:
            yield from self._recycle_slot(peer, slot_addr)

    def _recycle_ring_slot(self, peer: int, slot_addr: int):
        """Return a freed RDMA-eager ring slot to its sender (batched)."""
        pending = self._ring_free_pending[peer]
        pending.append(slot_addr)
        if len(pending) >= RING_CREDIT_BATCH:
            slots = tuple(pending)
            pending.clear()
            yield from self.ctrl_send(peer, RingCredit(slots))

    def _recycle_slot(self, peer: int, slot_addr: int):
        """Repost the consumed slot descriptor and return credits."""
        mr = self._recv_slot_mr[peer]
        self.data_qps[peer].post_recv_nocost(
            RecvWR(
                sges=(SGE(slot_addr, self._slot_size, mr.lkey),),
                wr_id=("slot", peer, slot_addr),
            )
        )
        self._slot_free_count[peer] += 1
        if self._slot_free_count[peer] >= CREDIT_BATCH:
            count = self._slot_free_count[peer]
            self._slot_free_count[peer] = 0
            yield from self.ctrl_send(peer, Credit(count))

    # ------------------------------------------------------------------
    # internal: rendezvous dispatch
    # ------------------------------------------------------------------

    def _run_sender(self, scheme, req: Request):
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            self.sim.now, self.rank, f"scheme:{scheme.name}", "send",
            meta=req.msg_id,
        )
        try:
            yield from scheme.sender(self, req)
        finally:
            if span is not None:
                span.finish(self.sim.now)
        self.close_inbox(req.msg_id)
        self._complete(req)

    def _run_receiver(self, rreq: Request, start: RndvStart):
        # one truncation check for every scheme, before the receive takes
        # a rendezvous slot or acquires / advertises any buffer
        self._check_fits(rreq, start.nbytes, start.tag)
        grant = yield from self._rndv_recv_slots.take()
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            self.sim.now, self.rank, f"scheme:{start.scheme}", "recv",
            meta=start.msg_id,
        )
        try:
            scheme = self.get_scheme(start.scheme)
            yield from scheme.receiver(self, rreq, start)
        finally:
            if span is not None:
                span.finish(self.sim.now)
            self._rndv_recv_slots.release(grant)
        self.close_inbox(start.msg_id)
        self._rndv_replies.pop(start.msg_id, None)
        self._complete(rreq, src=start.src, tag=start.tag)

    def _check_fits(self, rreq: Request, nbytes: int, tag: int) -> None:
        """MPI_ERR_TRUNCATE: a matched message must fit the posted receive."""
        if rreq.cursor.total < nbytes:
            raise TruncationError(
                f"rank {self.rank}: {nbytes}-byte message overruns "
                f"{rreq.cursor.total}-byte receive buffer (tag {tag})"
            )

    def _dispatch_matched(self, rreq: Request, envelope: _Envelope) -> None:
        """A posted receive matched a queued unexpected message."""
        if envelope.kind == "eager":
            self.sim.process(self._eager_deliver(rreq, envelope))
        elif envelope.kind == "rndv":
            self.sim.process(self._run_receiver(rreq, envelope.header))
        elif envelope.kind == "self":
            self.sim.process(self._self_deliver(rreq, envelope))
        else:  # pragma: no cover
            raise SimulationError(f"bad envelope kind {envelope.kind}")

    # ------------------------------------------------------------------
    # internal: progress engines
    # ------------------------------------------------------------------

    def _progress_engine(self):
        """Drain the receive CQ: matching, control routing, credits."""
        while True:
            cqe = yield from self._recv_cq.take()
            yield from self.node.cpu_work(self.cm.poll_cq, "poll")
            payload = cqe.payload
            if isinstance(payload, EagerHeader):
                peer = self._qp_rank[cqe.src_qp]
                wr_id = cqe.wr_id  # ("slot", peer, addr) | ("poll", addr)
                slot_addr = wr_id[2] if wr_id[0] == "slot" else wr_id[1]
                envelope = _Envelope(
                    payload.src, payload.tag, "eager", payload,
                    (peer, slot_addr, wr_id[0]),
                )
                yield from self._admit(payload.src, payload.seq, envelope)
            elif isinstance(payload, RndvStart):
                self._replenish_ctrl(cqe)
                envelope = _Envelope(payload.src, payload.tag, "rndv", payload)
                yield from self._admit(payload.src, payload.seq, envelope)
            elif isinstance(payload, Credit):
                self._replenish_ctrl(cqe)
                peer = self._qp_rank[cqe.src_qp]
                for _ in range(payload.count):
                    self._credits[peer].put(1)
            elif isinstance(payload, RingCredit):
                self._replenish_ctrl(cqe)
                peer = self._qp_rank[cqe.src_qp]
                for addr in payload.slots:
                    self._ring_out[peer].put(addr)
            elif type(payload).__name__ == "_LockReq":
                self._replenish_ctrl(cqe)
                self.sim.process(self._serve_lock(payload))
            elif type(payload).__name__ == "_LockRelease":
                self._replenish_ctrl(cqe)
                grant = self._win_lock_held.pop((payload.origin, payload.win_id))
                self._win_locks(payload.win_id).release(grant)
            elif hasattr(payload, "msg_id"):
                # rendezvous control (reply/fin/segment arrival/read ack):
                # route to the owning message's inbox
                self._replenish_ctrl(cqe)
                if isinstance(payload, RndvReply) and self.faults_active:
                    # under fault injection a reply may arrive more than
                    # once (the receiver re-answers retransmitted starts);
                    # deliver it to the waiting sender exactly once.  The
                    # seen-set is bounded by the run's message count.
                    if payload.msg_id in self._rndv_reply_seen:
                        continue
                    self._rndv_reply_seen.add(payload.msg_id)
                self.msg_inbox(payload.msg_id).put(payload)
            elif payload is None:
                # bare notification (e.g. an imm-only write); replenish
                self._replenish_ctrl(cqe)
            else:  # pragma: no cover
                raise SimulationError(f"unroutable payload {payload!r}")

    def _admit(self, src: int, seq: int, envelope: _Envelope):
        """Admit envelopes to matching strictly in per-source sequence
        order (generator); out-of-order arrivals are parked, and an
        already-admitted sequence number (only possible when fault
        injection retransmits a rendezvous start) is answered with the
        recorded reply instead of being matched twice."""
        expected = self._recv_expected.get(src, 1)
        if seq < expected:
            if envelope.kind == "rndv" and self.faults_active:
                recorded = self._rndv_replies.get(envelope.header.msg_id)
                if recorded is not None:
                    dest, reply, nbytes = recorded
                    self.metrics.counter("rndv.reply_resends", self.rank).inc()
                    yield from self.ctrl_send(dest, reply, nbytes=nbytes)
            return
        if seq > expected:
            self._recv_ooo.setdefault(src, {})[seq] = envelope
            return
        yield from self._deliver_envelope(envelope)
        self._recv_expected[src] = expected + 1
        parked = self._recv_ooo.get(src)
        while parked and self._recv_expected[src] in parked:
            nxt = parked.pop(self._recv_expected[src])
            yield from self._deliver_envelope(nxt)
            self._recv_expected[src] += 1

    def _deliver_envelope(self, envelope: _Envelope):
        """Run matching for an admitted envelope (generator)."""
        rreq = self.matching.arrive(envelope)
        self._unexpected_gauge.set(len(self.matching._unexpected))
        if envelope.kind == "eager":
            if rreq is not None:
                yield from self._eager_deliver(rreq, envelope)
            else:
                self._wake_probes()
        else:  # rendezvous start
            if rreq is not None:
                self.sim.process(self._run_receiver(rreq, envelope.header))
            else:
                self._wake_probes()

    def _wake_probes(self) -> None:
        """An unexpected message arrived: let blocked probes re-check."""
        waiters, self._probe_waiters = self._probe_waiters, []
        for ev in waiters:
            ev.succeed()

    def _replenish_ctrl(self, cqe) -> None:
        """Repost a control receive descriptor for the one consumed."""
        wr_id = cqe.wr_id
        if isinstance(wr_id, tuple) and wr_id and wr_id[0] == "ctrl":
            peer = wr_id[1]
            self.ctrl_qps[peer].post_recv_nocost(self._ctrl_recv_wr[peer])

    def _send_dispatcher(self):
        """Drain the send CQ, resolving registered completion events."""
        while True:
            cqe = yield from self._send_cq.take()
            ev = self._send_events.pop(cqe.wr_id, None)
            if ev is not None and not ev.triggered:
                ev.succeed(cqe)
