"""A run of descriptors is one event; the per-descriptor path is its oracle.

Since PR 23 the send engine takes, with the descriptor it dequeues, the
queued descriptors that each fold into the next, computes their injection
ends as arithmetic and yields one event at the last; what the removed
dispatches did is settled, with its own timestamps, by the next thing
that could observe it.  Three twins run every schedule:

``runs``
    the code as it is;
``per-descriptor``
    the planner cannot see the queue (its store iterates as empty), so
    every run has length one and a write still folds at its injection
    end — the parent commit's behaviour, event for event;
``faulted``
    an enabled :class:`FaultPlan` whose rates are all zero: runs of one
    *and* no folds, every write lands by its own event.

Everything an observer can read is equal across the three; the event
counts differ by exactly what was removed, once each twin's waits taken in
place (``Simulator.hold_until``, an idle CPU job) are counted back as the
events they replace.

Since PR 24 a write list stays arrays from the post to the landing; the
``SendWR`` objects it iterates to — the run path above, unchanged — are
its oracle.  Every schedule of the second half runs in three more twins:

``lists``
    every list is posted (or enqueued) as the :class:`WriteList` it is;
``descriptors``
    as ``list(write_list)``: PR 23's runs, event for event;
``list-faulted``
    the ``WriteList`` posted on a node with the all-zero-rate plan, which
    iterates it inside ``post_send_list``.

The first two are equal in everything, ``events_processed`` and the waits
taken in place included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.ib import SGE, CostModel, Fabric, Opcode, ProtectionError, RecvWR, SendWR
from repro.ib.verbs import WriteList
from repro.obs.profile import critical_path
from repro.simulator import MetricsRegistry, Simulator, Store, Tracer

BLOCK = 64
NBLK = 1024
PARTS = 8  # each buffer is also registered as eight regions of its own
TWINS = ("runs", "per-descriptor", "faulted")
LIST_TWINS = ("lists", "descriptors", "list-faulted")

#: what a descriptor is, by name; all but "write" and "zero" end a run
_WRITES = {
    "write": (Opcode.RDMA_WRITE, {}),
    "signaled": (Opcode.RDMA_WRITE, {"signaled": True}),
    "imm": (Opcode.RDMA_WRITE_IMM, {}),
    "polled": (Opcode.RDMA_WRITE_POLLED, {}),
}


class _NoLookahead(Store):
    """A send queue the planner cannot look into."""

    def __iter__(self):
        return iter(())


class World:
    """One twin: 2–3 nodes, every CQ watched, DMA activity sampled."""

    def __init__(self, kind, nodes=3):
        self.kind = kind
        self.sim = sim = Simulator()
        self.metrics = MetricsRegistry()
        sim.tracer = self.tracer = Tracer(metrics=self.metrics)
        self.cm = cm = CostModel.mellanox_2003()
        fabric = Fabric(sim, cm, self.metrics)
        self.nodes = fabric.connect_all(memory_capacity=1 << 18, n=nodes)
        if kind.endswith("faulted"):
            inj = FaultInjector(sim, FaultPlan(), self.metrics)
            inj.enabled = True  # enabled, and nothing can ever fire
            for node in self.nodes:
                node.fault_injector = inj
        elif kind == "per-descriptor":
            for node in self.nodes:
                queue = node.hca._send_queue
                queue.__class__ = type("Blind", (_NoLookahead, type(queue)), {})
        rng = np.random.default_rng(7)
        self.src, self.dst, self.src_parts, self.dst_parts = [], [], [], []
        for node in self.nodes:
            src = node.memory.alloc(NBLK * BLOCK)
            node.memory.view(src, NBLK * BLOCK)[:] = rng.integers(
                1, 256, NBLK * BLOCK, dtype=np.uint8
            )
            dst = node.memory.alloc(NBLK * BLOCK)
            self.src.append((src, node.memory.register(src, NBLK * BLOCK)))
            self.dst.append((dst, node.memory.register(dst, NBLK * BLOCK)))
            part = NBLK * BLOCK // PARTS
            for base, parts in ((src, self.src_parts), (dst, self.dst_parts)):
                parts.append([
                    node.memory.register(base + k * part, part) for k in range(PARTS)
                ])
        self.serial = self.reads = 0
        #: per (origin, peer), the (serial, size) of every write, in order
        self.writes = {}
        self.dma_samples = []
        sim.process(self._sample_dma())
        self.poll_serial = {}
        self.completions = []
        self.last_completion = None
        self.delivers = 0
        self.run_lengths = []
        for node in self.nodes:
            for peer, qp in node.hca.qps.items():
                qp.post_recv_nocost(RecvWR(), 4096)
                sim.process(self._watch(node.node_id, peer, qp.send_cq, False))
                sim.process(self._watch(node.node_id, peer, qp.recv_cq, True))
            node.hca._deliver = self._counting(node.hca._deliver)
        hold_until = sim.hold_until

        def spy(at, tag=None):
            if isinstance(tag, tuple) and tag[0] == "run":
                self.run_lengths.append(len(tag[1]))
            return hold_until(at, tag)

        sim.hold_until = spy
        self.holds = 0
        advance = sim._advance

        def held(at, tag=None):
            self.holds += 1
            advance(at, tag)

        sim._advance = held

    def hops(self) -> int:
        """Events dispatched, each wait taken in place counted as one."""
        return self.sim.events_processed + self.holds

    def _counting(self, deliver):
        def counted(*args):
            self.delivers += 1
            return deliver(*args)

        return counted

    # -- descriptors ------------------------------------------------------

    def wr(self, peer, kind, size=BLOCK, origin=0):
        """The next descriptor of ``kind`` from ``origin`` to ``peer``;
        every descriptor has a source and a target block of its own."""
        s = self.serial
        self.serial += 1
        assert s < NBLK
        (src, smr), (dst, dmr) = self.src[origin], self.dst[peer]
        if kind == "send":
            return SendWR(Opcode.SEND, payload=s, signaled=False, wr_id=s)
        if kind == "read":
            self.reads += 1
            (rsrc, rmr), (ldst, lmr) = self.src[peer], self.dst[origin]
            return SendWR(
                Opcode.RDMA_READ, sges=[SGE(ldst + s * BLOCK, size, lmr.lkey)],
                remote_addr=rsrc + s * BLOCK, rkey=rmr.rkey, wr_id=s,
            )
        if kind == "zero":  # a member that gathers nothing
            return SendWR(
                Opcode.RDMA_WRITE, remote_addr=dst + s * BLOCK, rkey=dmr.rkey,
                signaled=False, wr_id=s,
            )
        opcode, kw = _WRITES[kind]
        kw = {"signaled": False, **kw}
        if opcode is Opcode.RDMA_WRITE_IMM:
            kw["imm"] = s
        if opcode is Opcode.RDMA_WRITE_POLLED:
            self.poll_serial[dst + s * BLOCK] = s
        self.writes.setdefault((origin, peer), []).append((s, size))
        return SendWR(
            opcode, sges=[SGE(src + s * BLOCK, size, smr.lkey)],
            remote_addr=dst + s * BLOCK, rkey=dmr.rkey, wr_id=s, **kw,
        )

    def enqueue(self, peer, wr, origin=0):
        """A post that costs no CPU time: due exactly when it is made."""
        qp = self.nodes[origin].hca.qps[peer]
        qp.hca.enqueue_send(qp, wr)
        qp.posted_sends += 1

    # -- write lists -----------------------------------------------------

    def write_list(self, peer, n, last="write", size=BLOCK, origin=0, parts=False):
        """``n`` writes of ``size`` bytes as a :class:`WriteList`, its last
        descriptor upgraded to ``last``; with ``parts`` every member names
        the one-eighth region its block lies in, not the whole buffer."""
        s0 = self.serial
        self.serial += n
        assert self.serial <= NBLK
        (src, smr), (dst, dmr) = self.src[origin], self.dst[peer]
        at = np.arange(s0, s0 + n, dtype=np.int64) * BLOCK
        lkeys = np.full(n, smr.lkey, dtype=np.int64)
        rkeys = np.full(n, dmr.rkey, dtype=np.int64)
        if parts:
            which = (at // (NBLK * BLOCK // PARTS)).tolist()
            lkeys[:] = [self.src_parts[origin][k].lkey for k in which]
            rkeys[:] = [self.dst_parts[peer][k].rkey for k in which]
        wrs = WriteList(
            (src + at, dst + at, np.full(n, size, dtype=np.int64)),
            lkeys, rkeys, (origin, s0),
        )
        self.writes.setdefault((origin, peer), []).extend(
            (s, size) for s in range(s0, s0 + n)
        )
        fin = wrs.last
        fin.wr_id = s = s0 + n - 1  # what the CQ watchers read
        fin.opcode, kw = _WRITES[last]
        fin.signaled = kw.get("signaled", False)
        if fin.opcode is Opcode.RDMA_WRITE_IMM:
            fin.imm = s
        if fin.opcode is Opcode.RDMA_WRITE_POLLED:
            self.poll_serial[fin.remote_addr] = s
        return wrs

    def as_posted(self, wrs):
        """What this twin hands the verbs for the write list ``wrs``."""
        return list(wrs) if self.kind == "descriptors" else wrs

    def enqueue_list(self, peer, wrs, origin=0):
        """:meth:`enqueue` for a write list; only the ``lists`` twin keeps
        the arrays (a faulted node never sees them: ``post_send_list``
        would have iterated)."""
        if self.kind == "lists":
            qp = self.nodes[origin].hca.qps[peer]
            qp.hca.enqueue_list(qp, wrs)
            qp.posted_sends += len(wrs)
        else:
            for wr in wrs:
                self.enqueue(peer, wr, origin)

    # -- observers --------------------------------------------------------

    def _sample_dma(self):
        for _ in range(500):  # ~ 300 us: every run of every schedule
            yield self.sim.timeout(0.61)
            self.dma_samples.append(tuple(n.dma_active for n in self.nodes))

    def landed(self, origin, peer, upto=NBLK):
        """Whether each write ``origin`` posted to ``peer`` up to serial
        ``upto`` is in ``peer``'s memory."""
        src, dst = self.src[origin][0], self.dst[peer][0]
        return tuple(
            bool((
                self.nodes[peer].memory.view(dst + s * BLOCK, size)
                == self.nodes[origin].memory.view(src + s * BLOCK, size)
            ).all())
            for s, size in self.writes.get((origin, peer), ()) if s <= upto
        )

    def _watch(self, node, peer, cq, is_recv):
        sim = self.sim
        while True:
            ev = cq.wait()
            cqe = yield ev
            self.last_completion = ev
            if is_recv:  # at the target: what was posted before has landed
                serial = cqe.imm if cqe.imm is not None else cqe.payload
                if cqe.opcode is Opcode.RDMA_WRITE_POLLED:
                    serial = self.poll_serial[cqe.wr_id[1]]
                seen = self.landed(peer, node, serial)
                assert all(seen), (self.kind, serial, seen)
            elif cqe.opcode is Opcode.RDMA_READ:
                s = cqe.wr_id
                seen = bool((
                    self.nodes[node].memory.view(
                        self.dst[node][0] + s * BLOCK, cqe.byte_len)
                    == self.nodes[peer].memory.view(
                        self.src[peer][0] + s * BLOCK, cqe.byte_len)
                ).all())
                assert seen
            else:  # at the origin: the first moment it could tell the target
                sim.process(self._probe_later(node, peer, cqe.wr_id))
                seen = None
            self.completions.append(
                (repr(sim.now), node, peer, is_recv, cqe.opcode.value,
                 cqe.byte_len, seen)
            )

    def _probe_later(self, origin, peer, serial):
        yield self.sim.timeout(self.cm.wire_latency)
        seen = self.landed(origin, peer, serial)
        assert all(seen), (self.kind, serial, seen)
        self.completions.append((repr(self.sim.now), "probe", peer, serial, seen))

    def observed(self):
        """Everything an observer could have read, for twin equality."""
        records = [
            (r.start, r.end, r.node, r.category, r.detail)
            for r in self.tracer.records
        ]
        # emission order is per (node, category): a settled ``wire`` record
        # carries its own timestamps but is emitted when it is settled
        by_track = {}
        for rec in records:
            by_track.setdefault(rec[2:4], []).append(rec)
        gauges = [self.metrics.gauge("ib.sq_depth", n.node_id) for n in self.nodes]
        attr = critical_path(self.last_completion) if self.last_completion else None
        return {
            "now": repr(self.sim.now),
            # (at the end a remote window may outlive the last landing by an ulp)
            "dma_active": [self.dma_samples, [n.dma_active for n in self.nodes]],
            "completions": self.completions,
            "records": sorted(records),
            "emission": by_track,
            "sq_depth": [(g.value, g.max_value) for g in gauges],
            "series": {
                k: v for k, v in self.tracer.series.items() if "sq.depth" in k[0]
            },
            "metrics": [
                row for row in self.metrics.snapshot()
                if row["name"].startswith(("ib.", "profile."))
            ],
            "memory": [
                bytes(n.memory.view(d[0], NBLK * BLOCK)) for n, d in zip(self.nodes, self.dst)
            ],
            "critical_path": attr and (attr.categories, attr.steps, attr.closure_error()),
        }


def run_twins(program, nodes=3):
    """Run ``program(world)`` (a generator function: node 0's driver,
    which may start others) in the three twins; assert they are
    indistinguishable and return them."""
    worlds = {}
    for kind in TWINS:
        w = worlds[kind] = World(kind, nodes)
        w.sim.process(program(w))
        w.sim.run()
        for node in w.nodes:
            assert not node.hca._run
            for qp in node.hca.qps.values():
                assert not qp.pending_landings
            assert w.metrics.gauge("ib.sq_depth", node.node_id).value == 0
        posted = sum(qp.posted_sends for n in w.nodes for qp in n.hca.qps.values())
        assert posted == sum(n.hca.descriptors_processed for n in w.nodes) == w.serial
        for origin, peer in w.writes:
            assert all(w.landed(origin, peer))
    runs, per_desc, faulted = (worlds[k] for k in TWINS)
    want = per_desc.observed()
    for other in (runs, faulted):
        got = other.observed()
        for key in want:
            assert got[key] == want[key], (other.kind, key)
    assert set(per_desc.run_lengths) <= {1} and set(faulted.run_lengths) <= {1}
    assert sum(runs.run_lengths) == len(per_desc.run_lengths) == runs.serial - runs.reads
    removed = sum(n - 1 for n in runs.run_lengths)
    assert per_desc.hops() - runs.hops() == removed
    # a fold is a landing event less, and only the faulted twin has none
    assert runs.delivers == per_desc.delivers
    assert faulted.hops() - per_desc.hops() == faulted.delivers - per_desc.delivers
    return worlds


# -- random schedules ---------------------------------------------------------

_kind = st.sampled_from(
    ["write"] * 6 + ["zero", "signaled", "imm", "polled", "send", "read"]
)
_cutter = st.sampled_from(["signaled", "imm", "polled", "send", "read", "zero"])
_gap = st.one_of(
    st.sampled_from([0.0, 0.25, 1.0, 5.0, 30.0]), st.floats(0.0, 40.0, allow_nan=False)
)
_peer = st.integers(1, 2)
_size = st.sampled_from([8, BLOCK])
_list = st.tuples(
    st.just("list"), _gap, _peer, st.integers(1, 200), _size,
    st.lists(st.tuples(st.integers(0, 199), _cutter), max_size=3), _kind,
)
_single = st.tuples(st.just("single"), _gap, _peer, _kind)
_burst = st.tuples(  # cost-free posts: two QPs interleaved descriptor by descriptor
    st.just("burst"), _gap, st.lists(st.tuples(_peer, _kind), min_size=1, max_size=12)
)
_ops = st.lists(st.one_of(_list, _single, _single, _burst), min_size=1, max_size=8)
#: node 1 posts lists to node 0 meanwhile, so node 0's READs are served
#: by an HCA that has a run of its own in flight
_back = st.lists(st.tuples(_gap, st.integers(1, 80), _kind), max_size=2)


@settings(max_examples=40, deadline=None)
@given(_ops, _back, st.sampled_from([2, 3]))
def test_random_schedules_are_indistinguishable(ops, back, nodes):
    total = sum(op[3] if op[0] == "list" else 12 for op in ops)
    if total >= NBLK - 160:
        ops = ops[:4]

    def program(w):
        sim = w.sim
        back_wrs = [
            (gap, [w.wr(0, "write", origin=1) for _ in range(n - 1)]
             + [w.wr(0, last, origin=1)])
            for gap, n, last in back
        ]

        def node1():
            for gap, wrs in back_wrs:
                yield sim.timeout(gap)
                yield from w.nodes[1].hca.qps[0].post_send_list(wrs)

        sim.process(node1())
        for op, gap, *rest in ops:
            if gap > 0:
                yield sim.timeout(gap)
            if op == "list":
                peer, n, size, cutters, last = rest
                peer = min(peer, nodes - 1)
                kinds = ["write"] * n
                for at, kind in cutters:
                    kinds[at % n] = kind
                kinds[-1] = last
                wrs = [w.wr(peer, kind, size) for kind in kinds]
                yield from w.nodes[0].hca.qps[peer].post_send_list(wrs)
            elif op == "single":  # often while a run is in flight
                peer, kind = rest
                peer = min(peer, nodes - 1)
                yield from w.nodes[0].hca.qps[peer].post_send(w.wr(peer, kind))
            else:
                for peer, kind in rest[0]:
                    peer = min(peer, nodes - 1)
                    w.enqueue(peer, w.wr(peer, kind))

    run_twins(program, nodes)


# -- a post due at exactly a member's injection end -----------------------------


def _member_ends(w, n, size):
    """``t_0 .. t_n``: when the engine starts on a list of ``n``
    ``size``-byte writes posted at time zero, then each injection end, as
    the engine adds them."""
    times = [w.cm.post_time(n, list_post=True)]
    for _ in range(n):
        times.append(times[-1] + w.cm.descriptor_time(size, 1))
    return times


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 60), _size,
    st.lists(st.tuples(st.integers(0, 59), _peer, _kind), min_size=1, max_size=4),
)
def test_posts_due_exactly_at_a_members_injection_end(n, size, ties):
    ties = sorted({at % n: (at % n, peer, kind) for at, peer, kind in ties}.values())

    def program(w):
        sim = w.sim
        t = _member_ends(w, n, size)
        wrs = [w.wr(1, "write", size) for _ in range(n - 1)]
        wrs.append(w.wr(1, "signaled", size))
        tie_wrs = [(t[at + 1], t[at], peer, w.wr(peer, kind))
                   for at, peer, kind in ties]

        def poster():
            for when, before, peer, wr in tie_wrs:
                # woken strictly inside the member's injection, so that in
                # the per-descriptor twin too this post is scheduled after
                # the member's own end — the twins then agree with the
                # convention, whatever the heap's tie-break
                yield sim.timeout_at((before + when) / 2)
                yield sim.timeout_at(when)
                assert sim.now == when
                w.enqueue(peer, wr)

        sim.process(poster())
        yield from w.nodes[0].hca.qps[1].post_send_list(wrs)

    run_twins(program)


def test_a_member_whose_injection_has_ended_has_retired():
    """The tie, decided once: a post due at exactly ``t_i`` finds member
    ``i`` retired (half-open, like the DMA windows), even when the post
    was scheduled first and the per-descriptor path would have served it
    before the member's own injection-end event."""
    n = 8
    w = World("runs")
    _t0, *ends = _member_ends(w, n, BLOCK)
    wrs = [w.wr(1, "write") for _ in range(n - 1)] + [w.wr(1, "signaled")]
    late = w.wr(1, "signaled")
    seen = {}

    def post_at_the_third_end(_e):
        hca = w.nodes[0].hca
        assert len(hca._run) == n - 1  # nothing settled yet: nobody looked
        w.enqueue(1, late)
        seen["unsettled"] = len(hca._run)
        seen["depth"] = w.metrics.gauge("ib.sq_depth", 0).value

    # scheduled before the list is even posted: lowest sequence number
    w.sim.timeout_at(ends[2]).callbacks.append(post_at_the_third_end)
    w.sim.process(w.nodes[0].hca.qps[1].post_send_list(wrs))
    w.sim.run()
    # members 0, 1 and 2 (ends[2] <= now) retired before the post counted
    assert seen == {"unsettled": n - 1 - 3, "depth": n - 3 + 1}
    assert w.metrics.gauge("ib.sq_depth", 0).max_value == n  # never n + 1
    series = w.tracer.series[("hca0.sq.depth", 0)]
    assert (ends[2], float(n - 4 + 1)) in series  # the pop at t_2, then the put
    assert w.run_lengths == [n, 1]
    assert [c[0] for c in w.completions if c[1] == 0][-1] == repr(
        (ends[-1] + w.cm.descriptor_time(BLOCK, 1)) + w.cm.cqe_delay
    )


# -- faults still name the culprit ------------------------------------------------


@pytest.mark.parametrize("kind", TWINS)
def test_a_stray_member_still_raises_protection_error(kind):
    w = World(kind, nodes=2)
    wrs = [w.wr(1, "write") for _ in range(50)] + [w.wr(1, "signaled")]
    dst, dmr = w.dst[1]
    stray = SendWR(
        Opcode.RDMA_WRITE, sges=wrs[20].sges, signaled=False,
        remote_addr=dst + (NBLK + 2) * BLOCK, rkey=dmr.rkey,  # past the window
    )
    wrs[20] = stray
    w.sim.process(w.nodes[0].hca.qps[1].post_send_list(wrs))
    with pytest.raises(ProtectionError) as err:
        w.sim.run()
    assert f"{stray.remote_addr:#x}" in str(err.value)
    assert f"rkey {dmr.rkey}" in str(err.value)


def test_counters_read_mid_run_settle_first():
    """``HCA.bytes_injected`` / ``descriptors_processed`` are observers:
    reading them retires the members whose injection has ended."""
    n = 10
    w = World("runs", nodes=2)
    t0, *ends = _member_ends(w, n, BLOCK)
    wrs = [w.wr(1, "write") for _ in range(n - 1)] + [w.wr(1, "signaled")]
    hca = w.nodes[0].hca
    seen = []

    def read(_e, what):
        raw = w.metrics.counter("ib.descriptors", 0).value
        seen.append((raw, getattr(hca, what)))

    for at, what in ((3, "bytes_injected"), (6, "descriptors_processed")):
        w.sim.timeout_at((ends[at] + ends[at + 1]) / 2).callbacks.append(
            lambda e, what=what: read(e, what)
        )
    w.sim.process(hca.qps[1].post_send_list(wrs))
    w.sim.run()
    # nobody had looked; each reader retires what has ended, then answers
    assert seen == [(0.0, 4 * BLOCK), (4.0, 7)]
    assert [(r.start, r.end) for r in w.tracer.iter_category("wire", 0)] == list(
        zip([t0, *ends[:-1]], ends)
    )


# -- a write list is the descriptors it iterates to ---------------------------


def run_list_twins(program, nodes=3):
    """Run ``program(world)`` in the three list twins: ``lists`` and
    ``descriptors`` are equal in everything an observer can read *and* in
    the events dispatched; the faulted one in everything but those."""
    worlds = {}
    for kind in LIST_TWINS:
        w = worlds[kind] = World(kind, nodes)
        w.sim.process(program(w))
        w.sim.run()
        for node in w.nodes:
            assert not node.hca._run and len(node.hca._send_queue) == 0
            for qp in node.hca.qps.values():
                assert not qp.pending_landings
            assert w.metrics.gauge("ib.sq_depth", node.node_id).value == 0
        posted = sum(qp.posted_sends for n in w.nodes for qp in n.hca.qps.values())
        assert posted == sum(n.hca.descriptors_processed for n in w.nodes) == w.serial
        for origin, peer in w.writes:
            assert all(w.landed(origin, peer))
    lists, descriptors, faulted = (worlds[k] for k in LIST_TWINS)
    want = descriptors.observed()
    for other in (lists, faulted):
        got = other.observed()
        for key in want:
            assert got[key] == want[key], (other.kind, key)
    assert lists.sim.events_processed == descriptors.sim.events_processed
    assert lists.holds == descriptors.holds
    assert lists.run_lengths == descriptors.run_lengths
    assert lists.delivers == descriptors.delivers
    assert set(faulted.run_lengths) <= {1}
    return worlds


_last = st.sampled_from(["write", "write", "signaled", "imm", "polled"])
_wlist = st.tuples(
    st.just("list"), _gap, _peer, st.integers(1, 200), _last, _size, st.booleans()
)
_wburst = st.tuples(  # cost-free: several lists and lone descriptors, one instant
    st.just("burst"), _gap,
    st.lists(
        st.one_of(
            st.tuples(_peer, _kind),
            st.tuples(_peer, st.integers(1, 60), _last, _size, st.booleans()),
        ),
        min_size=1, max_size=6,
    ),
)
_wops = st.lists(st.one_of(_wlist, _wlist, _single, _wburst), min_size=1, max_size=7)
_wback = st.lists(st.tuples(_gap, st.integers(1, 80), _last), max_size=2)


def _spent(op):
    if op[0] == "list":
        return op[3]
    return 1 if op[0] == "single" else sum(
        item[1] if len(item) > 2 else 1 for item in op[2]
    )


@settings(max_examples=40, deadline=None)
@given(_wops, _wback, st.sampled_from([2, 3]))
def test_write_lists_are_the_descriptors_they_iterate_to(ops, back, nodes):
    while sum(map(_spent, ops)) + sum(n for _g, n, _l in back) > NBLK:
        ops = ops[:-1]

    def program(w):
        sim = w.sim
        back_lists = [
            (gap, w.write_list(0, n, last, origin=1)) for gap, n, last in back
        ]

        def node1():
            for gap, wrs in back_lists:
                yield sim.timeout(gap)
                yield from w.nodes[1].hca.qps[0].post_send_list(w.as_posted(wrs))

        sim.process(node1())
        for op, gap, *rest in ops:
            if gap > 0:  # often while a run is in flight: a partial settle
                yield sim.timeout(gap)
            if op == "list":
                peer, n, last, size, parts = rest
                peer = min(peer, nodes - 1)
                wrs = w.write_list(peer, n, last, size, parts=parts)
                yield from w.nodes[0].hca.qps[peer].post_send_list(w.as_posted(wrs))
            elif op == "single":
                peer, kind = rest
                peer = min(peer, nodes - 1)
                yield from w.nodes[0].hca.qps[peer].post_send(w.wr(peer, kind))
            else:  # one run of several lists and lone descriptors, or two QPs'
                for peer, *what in rest[0]:
                    peer = min(peer, nodes - 1)
                    if len(what) == 1:
                        w.enqueue(peer, w.wr(peer, *what))
                    else:
                        n, last, size, parts = what
                        w.enqueue_list(peer, w.write_list(peer, n, last, size, parts=parts))

    run_list_twins(program, nodes)


def test_one_run_of_several_lists_and_lone_descriptors():
    def program(w):
        yield w.sim.timeout(1.0)
        w.enqueue_list(1, w.write_list(1, 40, parts=True))
        w.enqueue(1, w.wr(1, "write"))
        w.enqueue_list(1, w.write_list(1, 1))  # a list of one
        w.enqueue_list(1, w.write_list(1, 2, size=8))
        w.enqueue(1, w.wr(1, "zero"))
        w.enqueue_list(1, w.write_list(1, 300, "imm", parts=True))
        # mid-run, on this QP and on another: the prefix that has ended retires
        yield w.sim.timeout(40.0)
        w.enqueue(2, w.wr(2, "signaled"))
        yield w.sim.timeout(13.0)
        yield from w.nodes[0].hca.qps[1].post_send_list(
            w.as_posted(w.write_list(1, 25, "signaled"))
        )

    worlds = run_list_twins(program)
    assert worlds["lists"].run_lengths == [345, 1, 25]


@pytest.mark.parametrize("kind", LIST_TWINS)
@pytest.mark.parametrize("side", ["local", "remote"])
def test_a_stray_member_of_a_list_names_the_first_offender(kind, side):
    """Two members leave their region; whoever iterates, or nobody, the
    first in list order is the one the error names."""
    texts = {}
    for twin in ("descriptors", kind):
        w = World(twin, nodes=2)
        wrs = w.write_list(1, 51, "signaled", parts=True)
        addrs = wrs.src if side == "local" else wrs.dst
        part = NBLK * BLOCK // PARTS
        first = int(addrs[20]) + part  # the right key, the next region's bytes
        addrs[20], addrs[35] = first, addrs[35] - BLOCK // 2 - part
        w.sim.process(w.nodes[0].hca.qps[1].post_send_list(w.as_posted(wrs)))
        with pytest.raises(ProtectionError) as err:
            w.sim.run()
        texts[twin] = str(err.value)
        assert f"[{first:#x}, {first + BLOCK:#x})" in texts[twin]
        assert ("lkey" if side == "local" else "rkey") in texts[twin]
    assert texts[kind] == texts["descriptors"]


def _overlapping(w, n=12):
    """A list whose members 0, 3 and 7 all write member 5's target (the
    first block of a stretch is copied last, so a landing that ignored the
    overlap would let member 0 win), whose member 9 is empty and lies
    inside member 8's target, and whose member 1 is empty."""
    wrs = w.write_list(1, n, "signaled")
    untouched = [int(wrs.dst[i]) for i in (0, 1, 3, 5)]  # retargeted, or empty
    wrs.dst[0] = wrs.dst[3] = wrs.dst[5] = wrs.dst[7]
    wrs.lengths[1] = wrs.lengths[9] = 0
    wrs.dst[9] = wrs.dst[8] + 8
    w.writes.clear()  # the harness's one-target-each check does not apply
    return wrs, untouched


@pytest.mark.parametrize("post", ["list", "single", "list-faulted"])
def test_overlapping_targets_land_in_list_order(post):
    w = World("list-faulted" if post == "list-faulted" else "lists", nodes=2)
    wrs, untouched = _overlapping(w)
    qp = w.nodes[0].hca.qps[1]

    def program():
        if post == "single":
            for wr in wrs:
                yield from qp.post_send(wr)
        else:
            yield from qp.post_send_list(wrs)

    w.sim.process(program())
    w.sim.run()
    origin, target = w.nodes[0].memory, w.nodes[1].memory
    winners = {}  # target -> source of the last non-empty member writing there
    for src, dst, length in zip(*(a.tolist() for a in (wrs.src, wrs.dst, wrs.lengths))):
        if length:
            winners[dst] = src
    assert len(winners) == 7 and winners[int(wrs.dst[0])] == int(wrs.src[7])
    for dst, src in winners.items():
        assert bytes(target.view(dst, BLOCK)) == bytes(origin.view(src, BLOCK))
    for dst in untouched:
        assert not target.view(dst, BLOCK).any()
    assert w.nodes[0].hca.bytes_injected == w.nodes[1].hca.bytes_delivered == 10 * BLOCK


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 60), _size,
    st.lists(st.tuples(st.integers(0, 59), _peer, _kind), min_size=1, max_size=4),
)
def test_posts_due_exactly_at_a_list_members_injection_end(n, size, ties):
    """The tie convention, for a stretch found by bisection: a member whose
    injection ends exactly now has retired."""
    ties = sorted({at % n: (at % n, peer, kind) for at, peer, kind in ties}.values())

    def program(w):
        sim = w.sim
        t = _member_ends(w, n, size)
        wrs = w.write_list(1, n, "signaled", size)
        tie_wrs = [(t[at + 1], t[at], peer, w.wr(peer, kind))
                   for at, peer, kind in ties]

        def poster():
            for when, before, peer, wr in tie_wrs:
                yield sim.timeout_at((before + when) / 2)
                yield sim.timeout_at(when)
                assert sim.now == when
                w.enqueue(peer, wr)

        sim.process(poster())
        yield from w.nodes[0].hca.qps[1].post_send_list(w.as_posted(wrs))

    run_list_twins(program)


@pytest.mark.parametrize("n", [1, 2])
def test_the_shortest_lists(n):
    def program(w):
        yield from w.nodes[0].hca.qps[1].post_send_list(
            w.as_posted(w.write_list(1, n, "imm", size=8))
        )

    worlds = run_list_twins(program, nodes=2)
    assert worlds["lists"].run_lengths == [n]
