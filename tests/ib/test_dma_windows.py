"""``Node.dma_active`` is window arithmetic; the counter events it
replaced survive here as its oracle.

Until PR 22 every gather descriptor scheduled up to three heap events
whose only effect was ``dma_active ± 1``.  The reference below schedules
those events on a scratch :class:`Simulator` exactly as the deleted
``HCA._dma_bracket`` did; the windows must report the same count at
every sample — samples exactly at a window's start and exactly at its end
included — and hold nothing at quiescence.

Since PR 23 a run of descriptors registers its windows as one batch of
absolute ``[start, end)`` spans when the run is planned; N registrations
made one descriptor at a time, each at its own injection start, are that
batch's oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ib import CostModel
from repro.ib.hca import Node
from repro.simulator import Simulator


class BracketReference:
    """The replaced mechanism: one counter per node, moved by events."""

    def __init__(self, sim, nodes):
        self.sim = sim
        self.active = [0] * nodes

    def _bump(self, node, by, delay):
        ev = self.sim.event()
        ev.callbacks.append(lambda _e: self.active.__setitem__(
            node, self.active[node] + by))
        ev.succeed(delay=delay)

    def bracket(self, node, start_delay, duration):
        if duration <= 0:
            return
        if start_delay <= 0:
            self.active[node] += 1
        else:
            self._bump(node, +1, start_delay)
        self._bump(node, -1, start_delay + duration)


#: a quarter-microsecond grid makes coincident starts, ends and samples
#: common; free floats check that the window's bounds are the very float
#: expressions the events' due times were.  (Not generated: a positive
#: delay too small to move the clock, where an event would still take a
#: heap turn of its own — no cost model has a sub-nanosecond latency.)
_grid = st.integers(0, 12).map(lambda q: q / 4)
_span = st.one_of(_grid, st.floats(1e-3, 50.0, allow_nan=False))
_duration = st.one_of(_span, st.sampled_from([0.0, -0.25, -3.0]))
_open = st.tuples(
    st.just("open"), _span, st.integers(0, 1), _span, _duration,
    st.booleans(), st.booleans(),
)
_sample = st.tuples(st.just("sample"), _span, st.integers(0, 1))
_ops = st.lists(st.one_of(_open, _sample), min_size=1, max_size=40)


def _span(sim, start_delay, duration):
    """The absolute span the HCA registers for a stream that starts
    ``start_delay`` from now and lasts ``duration``."""
    now = sim.now
    return (now if start_delay <= 0 else now + start_delay,
            now + (start_delay + duration))


def _world():
    sim = Simulator()
    cm = CostModel.mellanox_2003()
    nodes = [Node(sim, i, cm, memory_capacity=4096) for i in range(2)]
    return sim, nodes, BracketReference(sim, len(nodes))


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_windows_count_what_the_counter_events_counted(ops):
    sim, nodes, ref = _world()
    seen = []

    def check(node):
        seen.append((sim.now, node, nodes[node].dma_active, ref.active[node]))

    def probe(node, delay):
        # like the one real reader, copy_work, which samples in the CPU's
        # grant — a zero-delay event, so it runs after every counter
        # event that was due at its timestamp
        sim.timeout(delay).callbacks.append(
            lambda _e: sim.timeout(0.0).callbacks.append(lambda _e: check(node))
        )

    def driver():
        for op, gap, node, *rest in ops:
            if gap > 0:
                yield sim.timeout(gap)
            if op == "sample":
                check(node)
                continue
            start_delay, duration, at_start, at_end = rest
            nodes[node].dma_windows([_span(sim, start_delay, duration)])
            ref.bracket(node, start_delay, duration)
            if at_start:  # due exactly when the window opens ...
                probe(node, start_delay)
            if at_end and duration > 0:  # ... and exactly when it closes
                probe(node, start_delay + duration)

    sim.process(driver())
    sim.run()
    assert [(t, n, got) for t, n, got, _ in seen] == [
        (t, n, want) for t, n, _, want in seen
    ]
    assert ref.active == [0, 0]
    assert [n.dma_active for n in nodes] == [0, 0]
    assert [n._dma_windows for n in nodes] == [[], []]


def test_half_open_at_both_ends():
    sim, (node, _), ref = _world()
    seen = {}

    def prog():
        node.dma_windows([_span(sim, 1.0, 2.0)])
        ref.bracket(0, 1.0, 2.0)
        for t in (0.5, 1.0, 2.0, 3.0, 3.5):
            yield sim.timeout(t - sim.now)
            seen[t] = (node.dma_active, ref.active[0])

    sim.process(prog())
    sim.run()
    assert seen == {0.5: (0, 0), 1.0: (1, 1), 2.0: (1, 1), 3.0: (0, 0), 3.5: (0, 0)}


def test_a_node_that_never_samples_holds_only_streams_in_flight():
    sim, (node, _), _ref = _world()
    longest = []

    def stream():
        for _ in range(1000):
            node.dma_windows([_span(sim, 0.0, 1.0)])  # the local gather window
            node.dma_windows([_span(sim, 2.5, 1.0)])  # a peer's, one latency on
            longest.append(len(node._dma_windows))
            yield sim.timeout(1.0)

    sim.process(stream())
    sim.run()
    assert max(longest) <= 5


#: one descriptor of a run: its occupancy and whether it gathers anything
#: (a zero-SGE member opens no window)
_member = st.tuples(
    st.one_of(_grid.filter(bool), st.floats(1e-3, 50.0, allow_nan=False)),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_member, min_size=1, max_size=60),
    st.one_of(_grid, st.floats(1e-3, 50.0, allow_nan=False)),
    st.one_of(_grid, st.floats(1e-3, 50.0, allow_nan=False)),
    st.lists(st.floats(0.0, 400.0, allow_nan=False), max_size=10),
)
def test_a_batch_at_plan_time_is_n_registrations_at_their_own_times(
    members, latency, t0, extra
):
    # the injection ends, left to right as the HCA adds them
    ends = []
    t = t0
    for occ, _gathers in members:
        t = t + occ
        ends.append(t)
    starts = [t0, *ends[:-1]]
    # every member's local and remote start and end, and a few free times
    samples = set(extra)
    for start, end, (occ, _gathers) in zip(starts, ends, members):
        samples |= {start, end, start + latency, start + (latency + occ)}
    samples = sorted(x for x in samples if x >= t0)

    def measure(batched):
        sim, (local, remote), ref = _world()
        seen = []

        def check(_e):
            seen.append((sim.now, local.dma_active, remote.dma_active, *ref.active))

        def probes():
            for when in samples:  # exactly at each float, after what is due
                sim.timeout_at(when).callbacks.append(
                    lambda _e: sim.timeout(0.0).callbacks.append(check)
                )

        def per_descriptor():
            for occ, gathers in members:
                if gathers:
                    local.dma_windows([_span(sim, 0.0, occ)])
                    remote.dma_windows([_span(sim, latency, occ)])
                    ref.bracket(0, 0.0, occ)
                    ref.bracket(1, latency, occ)
                yield sim.timeout(occ)

        def run():
            yield sim.timeout(t0)
            probes()
            if not batched:
                yield from per_descriptor()
                return
            gathering = [
                (s, occ) for s, (occ, gathers) in zip(starts, members) if gathers
            ]
            local.dma_windows([(s, s + occ) for s, occ in gathering])
            remote.dma_windows(
                [(s + latency, s + (latency + occ)) for s, occ in gathering]
            )
            assert len(local._dma_windows) <= 1  # one batch, however long
            yield sim.timeout_at(ends[-1])

        sim.process(run())
        sim.run()
        assert [n._dma_windows for n in (local, remote)] == [[], []]
        return seen

    one_by_one = measure(batched=False)
    assert [s[1:3] for s in one_by_one] == [s[3:5] for s in one_by_one]
    assert [s[:3] for s in measure(batched=True)] == [s[:3] for s in one_by_one]


def test_a_long_run_is_one_batch_read_by_bisection():
    sim, (node, _), _ref = _world()
    node.dma_windows([(float(i), i + 1.0) for i in range(1056)])
    assert len(node._dma_windows) == 1
    starts, ends = node._dma_windows[0]
    assert starts == sorted(starts) and ends == sorted(ends)
    sim.timeout(527.0)  # member 527 opens exactly as member 526 closes
    sim.run()
    assert sim.now == 527.0 and node.dma_active == 1
    sim.timeout_at(1056.0)
    sim.run()
    assert node.dma_active == 0 and node._dma_windows == []


def test_dma_active_has_no_setter():
    _sim, (node, _), _ref = _world()
    with pytest.raises(AttributeError):  # derived from the windows, always
        node.dma_active = 1
