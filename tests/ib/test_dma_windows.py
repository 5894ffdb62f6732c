"""``Node.dma_active`` is window arithmetic; the counter events it
replaced survive here as its oracle.

Until PR 22 every gather descriptor scheduled up to three heap events
whose only effect was ``dma_active ± 1``.  The reference below schedules
those events on a scratch :class:`Simulator` exactly as the deleted
``HCA._dma_bracket`` did; the windows must report the same count at
every sample — samples exactly at a window's start and exactly at its end
included — and hold nothing at quiescence.
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
            nodes[node].dma_window(start_delay, duration)
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
        node.dma_window(1.0, 2.0)
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
            node.dma_window(0.0, 1.0)  # the local gather window ...
            node.dma_window(2.5, 1.0)  # ... and a peer's, one latency on
            longest.append(len(node._dma_windows))
            yield sim.timeout(1.0)

    sim.process(stream())
    sim.run()
    assert max(longest) <= 5


def test_dma_active_has_no_setter():
    _sim, (node, _), _ref = _world()
    with pytest.raises(AttributeError):  # derived from the windows, always
        node.dma_active = 1
