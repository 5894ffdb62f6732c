"""``Node.cpu`` is a timeline; the capacity-1 queue it replaced survives
here as its oracle.

Until the timeline, ``cpu_work`` took a :class:`Resource` grant — an event
whenever the core was busy — and then waited on its own timeout; a copy
took the grant the same way and priced itself in it.  The oracle below is
that code, swapped in with ``mock.patch.object``.  Random programs of two
to five processes on one or two nodes mix CPU jobs, copies, timeouts and
DMA windows opened at and between the calls, and run once on each.  They
must resume in the same order with the same ``(now, value)``, leave the
same ``busy_time`` and have every copy sample the same ``dma_active``; the
timeline dispatches fewer events by exactly the grants it removed and the
jobs it ran in place (an idle core whose end would be the next dispatch
moves the clock to that end with no event).  Traced,
every job's completion walks the same critical path, and the occupancy
samples, wait histograms and CPU spans are equal.

One order differs by design (ARCHITECTURE.md §2): a booked job's end is
ordered by its booking.  An event due at exactly that end, scheduled after
the booking but before the queue would have granted the job, ran before
the job's end in the oracle and runs after it now.  The oracle finds such
ties and the draw is rejected; ``test_a_booked_end_is_ordered_by_its_
booking`` pins the rule itself.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ib import CostModel
from repro.ib.hca import Node, _CPU
from repro.obs.profile import critical_path
from repro.simulator import Resource, Simulator
from repro.simulator.trace import Tracer


class Oracle:
    """The queue: ``cpu_work`` / ``copy_work`` as they were, plus what the
    tie finder needs — the heap sequence number of each job's booking (its
    request, or the pricing of the last copy ahead of it still unpriced
    then) and of its timeout, and the due time of every scheduled event."""

    def __init__(self):
        self.jobs = []  # (booking seq, timeout seq, due)
        self.scheduled = []  # (seq, due)
        self.unpriced = {}  # node -> copies requested and not yet priced
        self.priced = {}  # copy marker -> seq at its pricing

    def cpu_work(self, node, cost, tag="cpu"):
        if cost <= 0:
            return
        pending = self.unpriced.setdefault(node.node_id, [])
        ahead, requested = (pending[-1] if pending else None), node.sim._seq
        grant = yield from node.cpu.take()
        start = node.sim.now
        try:
            timeout = node.sim.timeout(cost, tag=tag)
            booked = requested if ahead is None else self.priced[ahead]
            self.jobs.append((booked, node.sim._seq, start + cost))
            yield timeout
        finally:
            node.cpu.release(grant)
        tracer = node.sim.tracer
        if tracer is not None:
            tracer.record(start, node.sim.now, node.node_id, "cpu", tag)

    def copy_work(self, node, nbytes, nblocks=0, tag="copy", penalty=1.0):
        marker = object()
        pending = self.unpriced.setdefault(node.node_id, [])
        pending.append(marker)
        grant = yield from node.cpu.take()
        pending.remove(marker)
        self.priced[marker] = node.sim._seq
        start = node.sim.now
        factor = (1.0 + node.cm.membus_contention * node.dma_active) * penalty
        if nblocks > 0:
            overhead = node.cm.pack_time(nbytes, nblocks) - (
                nbytes / node.cm.copy_bandwidth
            )
        else:
            overhead = node.cm.copy_startup
        cost = overhead + nbytes * factor / node.cm.copy_bandwidth
        try:
            yield node.sim.timeout(cost, tag=tag)
        finally:
            node.cpu.release(grant)
        tracer = node.sim.tracer
        if tracer is not None:
            tracer.record(start, node.sim.now, node.node_id, "cpu", tag)

    def ties(self) -> int:
        """Events due at a job's end, scheduled between its booking (on the
        timeline) and its timeout (in the queue)."""
        return sum(
            due == end and lo < seq < hi
            for lo, hi, end in self.jobs
            for seq, due in self.scheduled
        )


#: a quarter-microsecond grid makes coincident ends common
_grid = st.integers(0, 12).map(lambda q: q / 4)
_node = st.integers(0, 1)
_op = st.one_of(
    st.tuples(st.just("cpu"), _node, st.one_of(_grid, st.just(-1.0))),
    st.tuples(
        st.just("copy"), _node, st.sampled_from([0, 64, 4096, 65536]),
        st.integers(0, 8),
    ),
    st.tuples(st.just("timeout"), _grid),
    st.tuples(st.just("dma"), _node, _grid, _grid),
)
PROGRAMS = st.fixed_dictionaries({
    "nodes": st.integers(1, 2),
    "bodies": st.lists(st.lists(_op, max_size=8), min_size=2, max_size=5),
})


def execute(program, oracle=None, traced=False):
    """Run ``program`` on the timeline, or on the queue when ``oracle`` is
    given; return what the twin compares, the grant events taken and the
    waits taken in place."""
    sim = Simulator()
    if traced:
        sim.tracer = Tracer()
    cm = CostModel.mellanox_2003()
    nodes = [Node(sim, i, cm, memory_capacity=4096) for i in range(2)]
    nodes = nodes[: program["nodes"]]
    if oracle is not None:
        for node in nodes:
            node.cpu = Resource(sim, capacity=1, name=node.cpu.name, node=node.node_id)
    log, samples, done = [], [], []
    dma_active = Node.dma_active

    def sampled(node):
        value = dma_active.fget(node)
        samples.append((node.node_id, sim.now, value))
        return value

    def body(pid, ops):
        for op in ops:
            kind, value = op[0], None
            if kind == "cpu":
                yield from nodes[op[1] % len(nodes)].cpu_work(op[2])
                if op[2] > 0:
                    done.append((pid, sim._current_event))
            elif kind == "copy":
                yield from nodes[op[1] % len(nodes)].copy_work(op[2], op[3])
                done.append((pid, sim._current_event))
            elif kind == "timeout":
                value = yield sim.timeout(op[1], value=op[1])
            else:
                now = sim.now
                nodes[op[1] % len(nodes)].dma_windows(
                    [(now + op[2], now + (op[2] + op[3]))]
                )
            log.append((pid, sim.now, kind, value))
        return pid

    grants, holds = [0], [0]
    patches = [mock.patch.object(Node, "dma_active", property(sampled))]
    if oracle is None:
        request, advance = _CPU.request, Simulator._advance

        def counted(cpu, ev, cost, tag):
            grants[0] += cost is None
            return request(cpu, ev, cost, tag)

        def held(sim, at, tag=None):
            holds[0] += 1
            return advance(sim, at, tag)

        patches += [
            mock.patch.object(_CPU, "request", counted),
            mock.patch.object(Simulator, "_advance", held),
        ]
    else:
        acquire, schedule = Resource.acquire, Simulator._schedule

        def counted(res):
            grants[0] += 1
            return acquire(res)

        def recorded(sim, event, delay=0.0, at=None):
            schedule(sim, event, delay, at)
            oracle.scheduled.append((sim._seq, sim.now + delay if at is None else at))

        patches += [
            mock.patch.object(Resource, "acquire", counted),
            mock.patch.object(Simulator, "_schedule", recorded),
            mock.patch.object(Node, "cpu_work", lambda n, *a: oracle.cpu_work(n, *a)),
            mock.patch.object(
                Node, "copy_work", lambda n, *a: oracle.copy_work(n, *a)
            ),
        ]
    for patch in patches:
        patch.start()
    try:
        for pid, ops in enumerate(program["bodies"]):
            sim.process(body(pid, ops))
        sim.run()
    finally:
        for patch in reversed(patches):
            patch.stop()
    busy = [repr(node.cpu.busy_time) for node in nodes]
    out = {"log": log, "samples": samples, "busy": busy, "now": sim.now}
    if traced:
        tracer = sim.tracer
        out["paths"] = [(pid, critical_path(ev).steps) for pid, ev in done]
        out["series"] = tracer.series
        out["metrics"] = tracer.metrics.snapshot()
        out["spans"] = [(r.start, r.end, r.node, r.detail) for r in tracer.records]
    return out, sim.events_processed, grants[0], holds[0]


def _twin(program, traced):
    oracle = Oracle()
    want, want_events, want_grants, _ = execute(program, oracle, traced)
    assume(not oracle.ties())
    got, events, grants, holds = execute(program, traced=traced)
    assert got == want
    assert want_events - events == want_grants - grants + holds


@settings(max_examples=150, deadline=None)
@given(PROGRAMS)
def test_timeline_matches_the_queue(program):
    _twin(program, traced=False)


@settings(max_examples=60, deadline=None)
@given(PROGRAMS)
def test_traced_timeline_walks_the_same_critical_path(program):
    _twin(program, traced=True)


def test_a_booked_end_is_ordered_by_its_booking():
    """The tie rule: job B, booked at 0 behind A's ``[0, 1)``, ends at 3.0
    ahead of a timeout due at 3.0 that was scheduled at 0.5 — after B's
    booking, before the queue would have granted B at 1.0 — so B resumes
    first; the queue resumed the timeout first."""
    sim = Simulator()
    node = Node(sim, 0, CostModel.mellanox_2003(), memory_capacity=4096)
    order = []

    def job(name, cost):
        yield from node.cpu_work(cost)
        order.append((name, sim.now))

    def timer():
        yield sim.timeout(0.5)
        yield sim.timeout(2.5)
        order.append(("timer", sim.now))

    sim.process(job("A", 1.0))
    sim.process(job("B", 2.0))
    sim.process(timer())
    sim.run()
    assert order == [("A", 1.0), ("B", 3.0), ("timer", 3.0)]
