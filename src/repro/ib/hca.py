"""The HCA and node model.

A :class:`Node` bundles what one cluster machine contributes to the
simulation: an address space, a CPU, and an HCA.  The cost structure
mirrors the real platform:

* The **CPU** is one core.  Packing/unpacking, datatype processing,
  descriptor posting, registration, allocation and protocol handling all
  serialize on it, in request order.  This is what makes overlap (Figure 3)
  matter: CPU work that the HCA hides behind wire time is free.  The core
  is a timeline, not a queue: a job of known cost is booked at request,
  ``[max(now, free_at), +cost)``, and is at most one event, at its end —
  none on an idle core whose end would be the next dispatch, where the
  clock moves there in place.  A copy is the exception.  Its cost samples
  ``dma_active`` when the core is granted to it, and DMA windows
  registered before that instant can still change the value, so a copy
  that would wait keeps its grant event, at the dispatch that frees the
  core.  It prices itself there and books the
  jobs queued behind it, up to the next copy.
* The **HCA send engine** is a capacity-1 pipeline that drains posted send
  descriptors in FIFO order.  Each descriptor occupies the engine for
  ``hca_startup + per_sge + bytes/wire_bandwidth`` — so many small
  descriptors underutilize the wire (the Multi-W failure mode for small
  blocks), while one gather descriptor amortizes the startup (the RWG-UP
  win).
* Inbound data lands, on an owed call or one event
  (:meth:`~repro.simulator.Simulator.call_later`, as does every CQE), no
  later than the first arrival that could reveal it — ``wire_latency``
  after injection completes, unless it is a silent write that folds
  (below).  Target memory writes are performed by the remote HCA's DMA
  engine and cost no remote CPU — the essence of RDMA.

One rule keeps the host from paying per block what the HCA does per list:
**an event whose callback resumes no process and schedules nothing is a
side effect with a deadline, not an event — it may ride on the next thing
that could observe it.**  DMA-stream windows are arithmetic read by
``Node.dma_active``; the send engine takes a queued descriptor in the
dispatch that finished the last one; and an RDMA write folds into its
successor's landing when it is (1) a plain ``RDMA_WRITE``, (2) unsignaled,
(3) on a node with no enabled fault plan, and its successor, (4) already
queued on the *same QP*, is (5) itself an RDMA write of any flavour — by
RC ordering neither side can learn of those bytes before that successor
arrives, one wire latency after its injection and so ahead of anything
this HCA injects later on any QP (a SEND would arrive
``channel_recv_overhead`` later still, a READ is served elsewhere).

A **run** is the rule once more: the descriptor the engine dequeues and
the prefix of the queue in which each descriptor folds into the next.  Its
injection ends ``t_i = t_{i-1} + occupancy_i`` are added left to right, as
a chain of timeouts would add them, its DMA windows are one batch, and the
engine waits until ``t_m``, in place or on one event
(:meth:`~repro.simulator.Simulator.hold_until`).  What the other
dispatches did — wire record, counters, the gather snapshot (legal at any
instant while the HCA owns the buffer: a member is unsignaled, so no
completion covers it before ``t_m + cqe_delay``), ``pending_landings``,
the ``ib.sq_depth`` decrement and the next pop with its ``sq.depth``
sample — is settled in order, each with its own ``t_i``, by the next
observer: the run's end, a put on this send queue, a reader of
``bytes_injected`` or ``descriptors_processed``.  A member with ``t_i <=
now`` has retired (half-open, like the windows).  A lone descriptor is a
run of one, and a faulted node plans nothing else.

A **write list** (:class:`~repro.ib.verbs.WriteList`) is a run given as
arrays: its members before the last are one queue item, their ends one
``cumsum`` (the same sum, in the same order), and a settled stretch ``[lo,
hi)`` of them one gather, one ``pending_landings`` entry and one scatter.
Only :meth:`HCA._land` may iterate it: when two targets of a stretch
overlap, or one strays from its region, list order decides which bytes win
and which member is named, so the stretch lands member by member.

Data is snapshotted at injection time, moved for real between numpy
address spaces, and validated against the registration tables, so every
scheme's output is byte-checkable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Optional

import numpy as np

from repro.ib.costmodel import CostModel
from repro.ib.memory import MemoryRegion, NodeMemory
from repro.ib.verbs import (
    RDMA_WRITES,
    Completion,
    CompletionQueue,
    Opcode,
    QPState,
    QueuePair,
    SGEList,
    SendWR,
    WriteList,
)
from repro.simulator import Event, SimulationError, Simulator, Store
from repro.simulator.metrics import MetricsRegistry

__all__ = ["HCA", "Node"]


class Node:
    """One cluster machine: memory + CPU + HCA."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        cm: CostModel,
        memory_capacity: int,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.node_id = node_id
        self.cm = cm
        self.metrics = metrics or MetricsRegistry()
        self.memory = NodeMemory(node_id, memory_capacity, cm.page_size)
        self.cpu = _CPU(sim, node_id)
        #: batches ``(sorted starts, sorted ends)`` of the half-open spans
        #: during which one HCA DMA stream reads/writes this node's memory
        #: (see :meth:`dma_windows`)
        self._dma_windows: list[tuple[list, list]] = []
        #: fault-injection hook (repro.faults); None or a disabled injector
        #: leaves every path byte-identical to the fault-free build
        self.fault_injector = None
        self.hca = HCA(self)

    # -- memory-bus contention -----------------------------------------

    def dma_windows(self, spans) -> None:
        """One more DMA stream on this node's memory during each absolute
        ``[start, end)`` of ``spans`` — one batch, e.g. a run's descriptors.

        A window is arithmetic, not a pair of counter events: nothing but
        :attr:`dma_active` can observe it.  One opening at ``now`` is seen
        by a CPU copy granted at the same timestamp.  A batch keeps its
        starts and ends sorted, so a read is two bisections however long
        the run; expired batches are pruned here as well as on read, so a
        node that never copies holds only the streams in flight.
        """
        spans = [span for span in spans if span[1] > span[0]]
        if spans:
            starts, ends = zip(*spans)
            self._live_windows().append((sorted(starts), sorted(ends)))

    def dma_batch(self, starts, ends) -> None:
        """:meth:`dma_windows` of ``[starts[i], ends[i])``, both sorted and
        no window negative — as a write list's plan has them."""
        self._live_windows().append((starts, ends))

    def _live_windows(self) -> list:
        now = self.sim.now
        self._dma_windows = live = [b for b in self._dma_windows if b[1][-1] > now]
        return live

    @property
    def dma_active(self) -> int:
        """HCA DMA streams reading/writing this node's memory right now;
        CPU copies slow down while it is non-zero (memory-bus contention,
        see CostModel.membus_contention)."""
        now = self.sim.now
        return sum(
            bisect_right(starts, now) - bisect_right(ends, now)
            for starts, ends in self._live_windows()
        )

    # -- CPU accounting ------------------------------------------------

    def cpu_work(self, cost: float, tag: str = "cpu"):
        """Occupy the CPU for ``cost`` microseconds (generator)."""
        if cost > 0:
            yield from self.cpu.work(cost, tag)

    def copy_work(
        self, nbytes: int, nblocks: int = 0, tag: str = "copy",
        penalty: float = 1.0,
    ):
        """Occupy the CPU for a copy of ``nbytes`` over ``nblocks``
        datatype blocks, under current memory-bus contention (generator).

        The datatype-processing portion runs at full speed; the byte-copy
        portion slows by ``1 + membus_contention * dma_active``, sampled
        when the CPU is granted (copies are short relative to DMA phases,
        so start-sampling is a good approximation).  ``penalty`` scales
        the byte cost further (cache-locality effects, e.g. the deferred
        whole-message unpack of Figure 12).
        """
        cpu = self.cpu
        grant: Optional[Event] = None
        if cpu.requests or not self.sim.next_is_mine():
            grant = Event(self.sim)
            cpu.request(grant, None, tag)
            yield grant
        factor = (1.0 + self.cm.membus_contention * self.dma_active) * penalty
        if nblocks > 0:
            overhead = self.cm.pack_time(nbytes, nblocks) - (
                nbytes / self.cm.copy_bandwidth
            )
        else:  # a plain memcpy, no datatype engine involved
            overhead = self.cm.copy_startup
        cost = overhead + nbytes * factor / self.cm.copy_bandwidth
        yield from cpu.work(cost, tag, grant is not None)

    # -- timed memory management ----------------------------------------

    def malloc(self, nbytes: int, align: int = 64, *, charge: bool = True):
        """Allocate a dynamic buffer, charging malloc + first-touch faults.

        Generator returning the address.
        """
        addr = self.memory.alloc_undefined(nbytes, align)
        if charge:
            yield from self.cpu_work(self.cm.malloc_time(nbytes), "malloc")
        return addr

    def mfree(self, addr: int, *, charge: bool = True):
        """Free a dynamic buffer (generator)."""
        nbytes = self.memory.alloc_size(addr)
        self.memory.free(addr)
        if charge:
            yield from self.cpu_work(self.cm.free_time(nbytes), "free")

    def register(self, addr: int, length: int, *, charge: bool = True):
        """Register (pin) a region, charging registration time.

        Generator returning the :class:`MemoryRegion`.  Under fault
        injection a registration attempt may fail transiently (driver
        resource exhaustion); each failed attempt still pays the pin walk
        and is simply retried.
        """
        inj = self.fault_injector
        if inj is not None and inj.enabled:
            attempts = 0
            while inj.fail_registration(self.node_id, length):
                attempts += 1
                if attempts >= self.cm.reg_retry_limit:
                    raise SimulationError(
                        f"node {self.node_id}: registration of {length} bytes "
                        f"still failing after {attempts} attempts"
                    )
                self.metrics.counter("reg.retries", self.node_id).inc()
                if charge:
                    yield from self.cpu_work(
                        self.cm.reg_time(length, addr), "register_retry"
                    )
        if charge:
            start = self.sim.now
            yield from self.cpu_work(self.cm.reg_time(length, addr), "register")
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.record(start, self.sim.now, self.node_id, "reg", "reg")
        self.metrics.counter("reg.registrations", self.node_id).inc()
        self.metrics.counter("reg.registered_bytes", self.node_id).inc(length)
        return self.memory.register(addr, length)

    def deregister(self, mr: MemoryRegion, *, charge: bool = True):
        """Deregister (unpin) a region, charging deregistration time."""
        self.memory.deregister(mr)
        self.metrics.counter("reg.deregistrations", self.node_id).inc()
        if charge:
            start = self.sim.now
            yield from self.cpu_work(
                self.cm.dereg_time(mr.length, mr.addr), "deregister"
            )
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.record(start, self.sim.now, self.node_id, "reg", "dereg")


class _CPU:
    """:attr:`Node.cpu`: one core as a timeline (module docstring).  Traced,
    it emits what a capacity-1 :class:`~repro.simulator.Resource` did, at
    the same instants; a job booked behind another is one ``("run", ...)``
    event, its wait then its work, caused by its predecessor's end.  A
    booked job's end is ordered by its booking (ARCHITECTURE.md §2).  A
    job on an idle core whose end would be the next dispatch books no
    event: the clock moves to its end in place."""

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.name = f"cpu{node_id}"
        self.node = node_id
        #: total microseconds of booked work that has ended
        self.busy_time = 0.0
        #: end of the last booked job, and its end event: the dispatch that
        #: frees the core
        self.free_at = 0.0
        self.last: Optional[Event] = None
        #: ``(event, cost, tag, request time)`` of each job queued behind a
        #: copy not yet priced, that copy first (cost None, event its grant)
        self.fifo: deque = deque()
        #: request times of the jobs not yet ended, oldest first
        self.requests: deque = deque()

    @property
    def in_use(self) -> int:
        return min(len(self.requests), 1)

    @property
    def queue_length(self) -> int:
        return max(len(self.requests) - 1, 0)

    def request(self, ev: Event, cost: Optional[float], tag) -> None:
        """Book ``ev`` to fire at the end of ``cost`` more microseconds of
        work, or queue it behind a copy not yet priced; a copy (``cost``
        None) has ``ev`` granted when the core frees for it."""
        now = self.sim.now
        queued = bool(self.requests)
        self.requests.append(now)
        if self.fifo or cost is None:
            self.fifo.append((ev, cost, tag, now))
            if len(self.fifo) == 1:
                self._arm(queued)
        else:
            self._book(ev, cost, tag, now, queued)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.sample_resource(self)

    def work(self, cost: float, tag, granted: bool = False):
        """Occupy the core for ``cost`` microseconds (generator).  A copy
        priced in its grant is ``granted``: it is booked now, then the jobs
        queued behind it up to the next copy, which is armed."""
        sim = self.sim
        requests = self.requests
        start = sim.now
        if not (granted or requests) and sim.next_is_mine(start + cost):
            # an idle core whose end would be the next dispatch: in place
            requests.append(start)
            if sim.tracer is not None:
                sim.tracer.sample_resource(self)
            self.free_at = start + cost
            sim._advance(self.free_at, tag)
        else:
            ev = Event(sim)
            if not granted:
                self.request(ev, cost, tag)
            else:
                fifo = self.fifo
                fifo.popleft()
                self._book(ev, cost, tag, start, False)
                while fifo and fifo[0][1] is not None:
                    self._book(*fifo.popleft(), True)
                if fifo:
                    self._arm(True)
            start = yield ev
        now = sim.now
        self.busy_time += now - start
        requests.popleft()
        tracer = sim.tracer
        if tracer is not None:
            if requests:  # the wait of the job the queue granted here
                tracer.observe_wait("resource.wait_us", self.node, now - requests[0])
            tracer.sample_resource(self)
            tracer.record(start, now, self.node, "cpu", tag)

    def _arm(self, queued: bool) -> None:
        """Grant the copy at the head of the FIFO now, or when the core
        frees: in the dispatch of the last booked end, ahead of the process
        that end resumes."""
        grant, _cost, _tag, req = self.fifo[0]
        last = self.last
        if not queued or last is None:
            grant.succeed()
            return
        tag = None
        if self.sim.tracer is not None:
            tag = ("resource-wait", req, self.name)
        last.callbacks.insert(0, lambda _e: grant.succeed(tag=tag))

    def _book(self, ev: Event, cost: float, tag, req: float, queued: bool) -> None:
        """:meth:`Simulator.timeout_at` for an event a process may already
        wait on: it fires at the end of its work, with its start."""
        sim = self.sim
        start = max(sim.now, self.free_at)
        end = start + cost
        traced = queued and sim.tracer is not None
        if traced:
            wait = (req, start, ("resource-wait", req, self.name))
            tag = ("run", (wait, (start, end, tag)))
        ev.triggered = True
        ev._value = start
        ev._ptag = tag
        sim._schedule(ev, at=end)
        if traced:
            ev._cause = self.last
        self.free_at = end
        self.last = ev


class _ReadResponse:
    """Internal send-engine item: a responder streaming RDMA read data."""

    __slots__ = ("req_qp", "wr", "data")

    def __init__(self, req_qp: QueuePair, wr: SendWR, data: np.ndarray):
        self.req_qp = req_qp  # requester's QP (destination of the response)
        self.wr = wr  # the original RDMA_READ work request
        self.data = data


class _SendQueue(Store):
    """The send queue, its depth in descriptors: ``unpopped`` members of
    write lists wait beside the one item each queued list is."""

    unpopped = 0

    def __len__(self) -> int:
        return len(self._items) + self.unpopped


class HCA:
    """The host channel adapter of one node."""

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self.cm = node.cm
        self.memory = node.memory
        self.node_id = node.node_id
        self._send_queue = _SendQueue(
            self.sim, name=f"hca{self.node_id}.sq", node=self.node_id
        )
        self.sim.process(self._send_engine(), name=f"hca{self.node_id}")
        self.metrics = node.metrics
        #: wire bytes injected / descriptors processed, for utilization
        #: stats — read back as ``bytes_injected`` / ``descriptors_processed``
        self._bytes_injected = self.metrics.counter("ib.bytes_injected", self.node_id)
        self._descriptors = self.metrics.counter("ib.descriptors", self.node_id)
        #: wire bytes that arrived here; at quiescence Σ injected =
        #: Σ delivered + Σ ``ib.bytes_dropped`` over the fabric
        self._bytes_delivered = self.metrics.counter(
            "ib.bytes_delivered", self.node_id
        )
        #: WQE backlog in the send engine (posted but not yet drained)
        self._sq_depth = self.metrics.gauge("ib.sq_depth", self.node_id)
        #: members of the run in flight that have not retired yet, in
        #: injection order: ``(start, end, qp, wr, nbytes)``, or ``[times,
        #: retired, qp, wrs]``, member ``i`` of the write list injected over
        #: ``[times[i], times[i + 1])`` (:meth:`_inject`)
        self._run: deque = deque()

    @property
    def bytes_injected(self) -> int:
        self._settle()
        return int(self._bytes_injected.value)

    @property
    def bytes_delivered(self) -> int:
        return int(self._bytes_delivered.value)

    @property
    def descriptors_processed(self) -> int:
        self._settle()
        return int(self._descriptors.value)

    def create_qp(
        self,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
    ) -> QueuePair:
        # explicit None checks: an empty CompletionQueue is falsy (__len__)
        if send_cq is None:
            send_cq = CompletionQueue(self, f"scq{self.node_id}")
        if recv_cq is None:
            recv_cq = CompletionQueue(self, f"rcq{self.node_id}")
        return QueuePair(self, send_cq, recv_cq)

    def create_cq(self, name: str = "") -> CompletionQueue:
        return CompletionQueue(self, name or f"cq{self.node_id}")

    # -- send engine -------------------------------------------------------

    def enqueue_send(self, qp: QueuePair, wr: SendWR) -> None:
        self._put((qp, wr))
        # outstanding = queued + the one the engine is processing
        self._sq_depth.inc()

    def enqueue_list(self, qp: QueuePair, wrs: WriteList) -> None:
        """A validated write list: its silent members as one item, then
        its last descriptor as the ``SendWR`` it is."""
        silent = len(wrs) - 1
        if silent:
            self._settle()
            self._send_queue.unpopped += silent - 1
            self._send_queue.put((qp, wrs))
            self._sq_depth.inc(silent)
        self.enqueue_send(qp, wrs.last)

    def _put(self, item) -> None:
        self._settle()  # a member whose injection has ended retires first
        self._send_queue.put(item)

    def _settle(self) -> None:
        """Retire, in order and with their own timestamps, the members of
        the run in flight whose injection has ended (``end <= now``)."""
        run = self._run
        now = self.sim.now
        while run:
            head = run[0]
            if type(head) is list:  # a write list: the prefix one bisect finds
                times, lo, qp, wrs = head
                head[1] = hi = bisect_right(times, now, lo + 1) - 1
                if hi > lo:
                    self._retire(qp, wrs, times, lo, hi)
                if hi < len(wrs) - 1:
                    break
            elif head[1] <= now:
                start, end, qp, wr, nbytes = head
                data = self._snapshot(start, end, wr, nbytes)
                qp.peer.pending_landings.append((wr, data))
                self._sq_depth.dec()
                self._send_queue.try_get(at=end)  # the engine takes the next member
            else:
                break
            run.popleft()

    def _retire(
        self, qp: QueuePair, wrs: WriteList, times: list, lo: int, hi: int
    ) -> None:
        """:meth:`_settle` for members ``[lo, hi)`` of a write list: one
        gather, counters by sums, one landing entry; an observer that is on
        sees every member."""
        tracer = self.sim.tracer
        if tracer is not None:
            for start, end in zip(times[lo:hi], times[lo + 1 :]):
                tracer.record(start, end, self.node_id, "wire", wrs.opcode.value)
        lengths = wrs.lengths[lo:hi]
        data = np.empty(int(lengths.sum()), dtype=np.uint8)
        self.memory.copy_blocks(wrs.src[lo:hi], lengths, data, gather=True)
        self._bytes_injected.inc(len(data))
        self._descriptors.inc(hi - lo)
        qp.peer.pending_landings.append((wrs, data, lo, hi))
        self._sq_depth.dec(hi - lo)
        # at each end the engine took the next member: the list's own, or,
        # after its last silent one, the next item of the queue
        queue = self._send_queue
        own = min(hi, len(wrs) - 2) - lo
        if tracer is None:
            queue.unpopped -= own
        else:
            for end in times[lo + 1 : lo + 1 + own]:
                queue.unpopped -= 1
                tracer.sample_store(queue, end)
        if hi == len(wrs) - 1:
            queue.try_get(at=times[hi])

    def _snapshot(self, start, end, wr: SendWR, nbytes: int) -> np.ndarray:
        """What one descriptor's injection leaves behind: the wire record,
        the counters and the DMA snapshot of its gather list."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(start, end, self.node_id, "wire", wr.opcode.value)
        self._bytes_injected.inc(nbytes)
        self._descriptors.inc()
        return self._gather(wr)

    def _folds(self, qp: QueuePair, wr: SendWR, nxt) -> bool:
        """Whether ``wr`` on ``qp`` lands with ``nxt``, the item queued
        behind it: the five conditions of the module docstring."""
        inj = self.node.fault_injector
        return (
            wr.opcode is Opcode.RDMA_WRITE
            and not wr.signaled
            and not (inj is not None and inj.enabled)
            and type(nxt) is tuple
            and nxt[0] is qp
            and nxt[1].opcode in RDMA_WRITES
        )

    def _send_engine(self):
        """Drain posted descriptors in FIFO order, one at a time: a backlog
        in the dispatch that finished the previous descriptor; when idle,
        parked in the queue's ``take()`` with no event, and the post that
        finds it resumes it in place where that is the next dispatch."""
        queue = self._send_queue
        while True:
            item = queue.try_get()
            if item is None:
                item = yield from queue.take()
            if isinstance(item, _ReadResponse):
                yield from self._stream_read_response(item)
                continue
            qp, wr = item
            if wr.opcode is Opcode.RDMA_READ:
                yield from self._issue_read_request(qp, wr)
            else:
                yield from self._inject(qp, wr)
            self._sq_depth.dec()

    # -- fault injection / recovery ---------------------------------------

    def _recover_qp(self, qp: QueuePair, recoveries: int):
        """Cycle an errored QP back to RTS (modify-QP drain + re-arm)."""
        if recoveries > self.cm.qp_max_recoveries:
            raise SimulationError(
                f"qp{qp.qp_num}: descriptor still failing after "
                f"{recoveries - 1} QP recoveries"
            )
        start = self.sim.now
        self.metrics.counter("qp.recoveries", self.node_id).inc()
        yield from self.sim.hold_until(start + self.cm.qp_recovery_us, "qp_recovery")
        qp.state = QPState.RTS
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(start, self.sim.now, self.node_id, "fault", "qp_recovery")

    def _transport_faults(self, qp: QueuePair, wr: SendWR):
        """Model the reliable transport's error behavior for one
        descriptor (generator; only called with an enabled injector).

        Mirrors the IB RC transport: failed attempts retry with
        exponential backoff up to ``retry_cnt``; receiver-not-ready NAKs
        (opcodes that consume a remote receive WQE) retry after the RNR
        timer up to ``rnr_retry_cnt``; budget exhaustion — or an injected
        hard error — drops the QP to SQE and costs a full recovery before
        the descriptor proceeds.  The descriptor itself is never lost:
        re-posting after recovery is idempotent because the WR carries its
        own gather list and destination.
        """
        inj = self.node.fault_injector
        sim, cm = self.sim, self.cm
        retries = self.metrics.counter("qp.retries", self.node_id)
        recoveries = 0
        while True:
            if inj.hard_fail(self.node_id, qp.qp_num):
                qp.set_error(QPState.SQE)
                recoveries += 1
                yield from self._recover_qp(qp, recoveries)
                continue
            if wr.opcode in (Opcode.SEND, Opcode.RDMA_WRITE_IMM):
                rnr = 0
                while inj.rnr(self.node_id, qp.qp_num):
                    rnr += 1
                    qp.rnr_naks += 1
                    self.metrics.counter("qp.rnr_naks", self.node_id).inc()
                    if rnr > cm.rnr_retry_cnt:
                        break
                    yield from sim.hold_until(sim.now + cm.rnr_timer_us, "rnr")
                if rnr > cm.rnr_retry_cnt:
                    qp.set_error(QPState.SQE)
                    recoveries += 1
                    yield from self._recover_qp(qp, recoveries)
                    continue
            attempt = 0
            while inj.fail_send(self.node_id, qp.qp_num):
                attempt += 1
                qp.retries += 1
                retries.inc()
                if attempt > cm.retry_cnt:
                    break
                backoff = cm.retry_backoff(attempt - 1)
                yield from sim.hold_until(sim.now + backoff, "retry")
            if attempt > cm.retry_cnt:
                qp.set_error(QPState.SQE)
                recoveries += 1
                yield from self._recover_qp(qp, recoveries)
                continue
            return

    def _inject(self, qp: QueuePair, wr: SendWR):
        """Process a SEND / RDMA_WRITE(_IMM) descriptor and the run it
        heads (module docstring): one wait, to the last injection end; the
        members before the last retire in :meth:`_settle`."""
        cm = self.cm
        inj = self.node.fault_injector
        dropped = False
        link = 1.0
        if inj is not None and inj.enabled:
            yield from self._transport_faults(qp, wr)
            inj.maybe_degrade(self.node_id)
            link = inj.link_factor(self.node_id)
            dropped = inj.drop_ctrl(self.node_id, wr.payload)
        wrs = [wr]
        for nxt in self._send_queue:
            if not self._folds(qp, wrs[-1], nxt):
                break
            wrs.append(nxt[1])
        # injection ends, left to right as a chain of timeouts would add
        # them; the HCA's gather DMA reads local memory during each, and
        # the remote HCA's DMA writes remote memory one latency later
        traced = self.sim.tracer is not None
        latency = cm.wire_latency
        t = self.sim.now
        run, local, remote, bounds = [], [], [], []
        for wr in wrs:
            if type(wr) is WriteList:
                t = self._plan_list(qp, wr, t, run, bounds)
                continue
            nbytes = wr.byte_len
            occupancy = cm.descriptor_time(nbytes, max(1, len(wr.sges)))
            if link > 1.0:
                occupancy += (link - 1.0) * cm.wire_time(nbytes)
            end = t + occupancy
            if wr.sges:
                local.append((t, end))
                remote.append((t + latency, t + (latency + occupancy)))
            if traced:
                # the leading WQE-processing portion attributes as
                # descriptor, the rest as wire
                desc_us = occupancy - cm.wire_time(nbytes) * link
                split = ("split", (("descriptor", desc_us), ("wire", None)))
                bounds.append((t, end, split))
            run.append((t, end, qp, wr, nbytes))
            t = end
        self.node.dma_windows(local)
        qp.peer.hca.node.dma_windows(remote)
        start, end, _qp, wr, nbytes = run.pop()  # the terminator: handled here
        self._run.extend(run)
        yield from self.sim.hold_until(end, ("run", tuple(bounds)))
        self._settle()
        # DMA snapshot of the gather list at injection time.
        data = self._snapshot(start, end, wr, nbytes)
        peer = qp.peer
        # Local completion: the descriptor has left the send queue.
        if wr.signaled:
            self._complete_local(qp, wr, nbytes, delay=cm.cqe_delay)
        # An injected control-message loss: the descriptor completed
        # locally, but nothing arrives at the responder.  Only messages
        # with an end-to-end retransmission path are ever dropped.
        if dropped:
            self.metrics.counter("ib.bytes_dropped", self.node_id).inc(nbytes)
            return
        # A silent write lands with its successor (module docstring): the
        # next descriptor this engine injects arrives on the same QP no
        # earlier, and lands these bytes first.
        if self._folds(qp, wr, self._send_queue.peek()):
            peer.pending_landings.append((wr, data))
            return
        # Remote delivery after the wire latency; channel semantics pay
        # the responder's receive-WQE fetch on top (one-sided RDMA does
        # not — the gap the RDMA eager channel exploits, [19]).
        delay = self.cm.wire_latency
        if wr.opcode is Opcode.SEND:
            delay += self.cm.channel_recv_overhead
        # wire propagation; any channel receive-WQE overhead on top is
        # protocol cost, not wire time
        self.sim.call_later(
            delay, lambda _: peer.hca._deliver(peer, qp, wr, data),
            tag=("split", (("wire", self.cm.wire_latency), ("protocol-wait", None))),
        )

    def _plan_list(self, qp: QueuePair, wrs: WriteList, t: float, run, bounds) -> float:
        """:meth:`_inject`'s loop body for the silent members of a write
        list, as array expressions; returns the last injection end."""
        cm = self.cm
        lengths = wrs.lengths[:-1]
        occupancy = cm.descriptor_time(lengths, 1)
        ends = np.cumsum(np.concatenate(([t], occupancy)))
        times = ends.tolist()
        self.node.dma_batch(times[:-1], times[1:])
        starts, latency = ends[:-1], cm.wire_latency
        qp.peer.hca.node.dma_batch(
            (starts + latency).tolist(), (starts + (latency + occupancy)).tolist()
        )
        if self.sim.tracer is not None:
            for i, desc_us in enumerate((occupancy - cm.wire_time(lengths)).tolist()):
                split = ("split", (("descriptor", desc_us), ("wire", None)))
                bounds.append((times[i], times[i + 1], split))
        run.append([times, 0, qp, wrs])
        return times[-1]

    def _issue_read_request(self, qp: QueuePair, wr: SendWR):
        """RDMA read: ship the request to the responder's HCA."""
        start = self.sim.now
        yield from self.sim.hold_until(start + self.cm.hca_startup, "descriptor")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(start, self.sim.now, self.node_id, "wire", "read_req")
        self._descriptors.inc()
        peer = qp.peer
        length = wr.byte_len

        def handle_request(_):
            peer.hca.memory.check_remote(wr.remote_addr, length, wr.rkey)
            data = peer.hca.memory.view(wr.remote_addr, length).copy()
            peer.hca._put(_ReadResponse(qp, wr, data))

        delay = self.cm.wire_latency + self.cm.rdma_read_extra
        self.sim.call_later(delay, handle_request, tag="wire")

    def _stream_read_response(self, resp: _ReadResponse):
        """Responder side of an RDMA read: stream data back on the wire."""
        nbytes = len(resp.data)
        inj = self.node.fault_injector
        link = 1.0
        if inj is not None and inj.enabled:
            inj.maybe_degrade(self.node_id)
            link = inj.link_factor(self.node_id)
        start = self.sim.now
        # read responses stream at the (lower) RDMA read bandwidth
        occupancy = self.cm.hca_startup + nbytes * link / self.cm.rdma_read_bandwidth
        latency = self.cm.wire_latency
        self.node.dma_windows([(start, start + occupancy)])
        resp.req_qp.hca.node.dma_windows(
            [(start + latency, start + (latency + occupancy))]
        )
        yield from self.sim.hold_until(
            start + occupancy,
            ("split", (("descriptor", self.cm.hca_startup), ("wire", None))),
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(start, self.sim.now, self.node_id, "wire", "read_resp")
        self._bytes_injected.inc(nbytes)
        req_qp = resp.req_qp

        def land(_):
            req_hca = req_qp.hca
            req_hca._scatter(resp.wr.sges, resp.data)
            req_hca._bytes_delivered.inc(nbytes)
            req_qp.send_cq.push(
                Completion(
                    wr_id=resp.wr.wr_id,
                    opcode=Opcode.RDMA_READ,
                    byte_len=nbytes,
                    src_qp=req_qp.peer.qp_num,
                )
            )

        self.sim.call_later(
            self.cm.wire_latency + self.cm.cqe_delay, land,
            tag=("split", (("wire", self.cm.wire_latency), ("protocol-wait", None))),
        )

    # -- data movement -------------------------------------------------------

    def _gather(self, wr: SendWR) -> np.ndarray:
        if not wr.sges:
            return np.empty(0, dtype=np.uint8)
        if len(wr.sges) == 1:
            (sge,) = wr.sges
            return self.memory.view(sge.addr, sge.length).copy()
        sges = SGEList.of(wr.sges)
        data = np.empty(sges.nbytes, dtype=np.uint8)
        memory, width = self.memory, sges.width
        memory.copy_blocks(sges.addrs, sges.lengths, data, gather=True, width=width)
        return data

    def _scatter(self, sges, data: np.ndarray) -> None:
        """Fill ``sges`` in order with ``data``; a short message leaves
        the tail of the list untouched."""
        if not len(data):
            return
        if len(sges) == 1:
            (sge,) = sges
            if len(data) <= sge.length:
                self.memory.view(sge.addr, len(data))[:] = data
                return
        sges = SGEList.of(sges)
        if len(data) > sges.nbytes:
            raise SimulationError(
                f"node {self.node_id}: scatter list too small for "
                f"{len(data)} inbound bytes"
            )
        lengths, width = sges.lengths, sges.width
        if len(data) < sges.nbytes:  # clip the list where the data ends
            lengths = np.diff(np.minimum(np.cumsum(lengths), len(data)), prepend=0)
            width = None
        self.memory.copy_blocks(sges.addrs, lengths, data, gather=False, width=width)

    # -- remote delivery ----------------------------------------------------

    def _deliver(
        self, qp: QueuePair, src_qp: QueuePair, wr: SendWR, data: np.ndarray
    ) -> None:
        """Handle inbound traffic on the receiving HCA (no CPU cost)."""
        if qp.pending_landings:  # silent writes injected before this one
            for landing in qp.pending_landings:
                self._land(*landing)
            qp.pending_landings.clear()
        if wr.opcode is Opcode.SEND:
            recv_wr = qp._consume_recv()
            if len(data) > recv_wr.byte_len:
                raise SimulationError(
                    f"node {self.node_id}: {len(data)}-byte SEND overruns "
                    f"{recv_wr.byte_len}-byte receive descriptor"
                )
            self._scatter(recv_wr.sges, data)
            self._bytes_delivered.inc(len(data) + wr.extra_bytes)
            self._complete_recv(qp, recv_wr.wr_id, wr, len(data))
        elif wr.opcode in RDMA_WRITES:
            nbytes = self._land(wr, data)
            if wr.opcode is Opcode.RDMA_WRITE_IMM:
                recv_wr = qp._consume_recv()
                self._complete_recv(qp, recv_wr.wr_id, wr, nbytes)
            elif wr.opcode is Opcode.RDMA_WRITE_POLLED:
                # no descriptor consumed; the receiver's poll loop spots
                # the tail flag after the poll interval
                cqe = Completion(
                    wr_id=("poll", wr.remote_addr),
                    opcode=wr.opcode,
                    byte_len=nbytes,
                    src_qp=qp.peer.qp_num if qp.peer else 0,
                    payload=wr.payload,
                    is_recv=True,
                )
                self.sim.call_later(
                    self.cm.eager_rdma_poll, qp.recv_cq.push, cqe, "poll-detect"
                )
        else:  # pragma: no cover - reads handled separately
            raise SimulationError(f"unexpected inbound opcode {wr.opcode}")

    def _land(
        self, wr: "SendWR | WriteList", data: np.ndarray, lo: int = 0, hi: int = 0
    ) -> int:
        """The DMA write of one inbound RDMA write, or of members ``[lo,
        hi)`` of a write list, at its own landing event or at its
        successor's; returns the bytes written."""
        nbytes = len(data)
        if type(wr) is WriteList:
            live = wr.lengths[lo:hi] > 0  # an empty write touches nothing
            columns = (wr.dst, wr.lengths, wr.rkeys)
            dst, lengths, rkeys = (a[lo:hi][live] for a in columns)
            order = np.argsort(dst, kind="stable")
            disjoint = (dst[order][1:] >= (dst + lengths)[order][:-1]).all()
            targets = SGEList(dst, lengths, rkeys)
            if disjoint and targets.inside(self.memory.check_remote):
                self.memory.copy_blocks(dst, lengths, data, gather=False)
                self._bytes_delivered.inc(nbytes)
            else:  # list order decides (module docstring)
                pos = 0
                for member in wr.members(lo, hi):
                    pos += self._land(member, data[pos : pos + member.byte_len])
            return nbytes
        if nbytes:
            self.memory.check_remote(wr.remote_addr, nbytes, wr.rkey)
            self.memory.view(wr.remote_addr, nbytes)[:] = data
        self._bytes_delivered.inc(nbytes + wr.extra_bytes)
        return nbytes

    def _complete_recv(
        self, qp: QueuePair, recv_wr_id: int, wr: SendWR, nbytes: int
    ) -> None:
        cqe = Completion(
            wr_id=recv_wr_id,
            opcode=wr.opcode,
            byte_len=nbytes,
            imm=wr.imm,
            src_qp=qp.peer.qp_num if qp.peer else 0,
            payload=wr.payload,
            is_recv=True,
        )
        self.sim.call_later(self.cm.cqe_delay, qp.recv_cq.push, cqe, "cqe")

    def _complete_local(
        self, qp: QueuePair, wr: SendWR, nbytes: int, delay: float
    ) -> None:
        cqe = Completion(
            wr_id=wr.wr_id,
            opcode=wr.opcode,
            byte_len=nbytes,
            imm=wr.imm,
            src_qp=qp.qp_num,
        )
        self.sim.call_later(delay, qp.send_cq.push, cqe, "cqe")
