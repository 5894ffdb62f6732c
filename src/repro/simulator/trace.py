"""The simulated-time recorder.

A :class:`Tracer` collects timestamped :class:`TraceRecord` entries tagged
with a category (``"cpu"``, ``"wire"``, ``"reg"``, ...) and a node id.  The
benchmark harness uses traces to quantify overlap (e.g. how much packing
time was hidden behind wire time in BC-SPUP) and to explain the figures in
EXPERIMENTS.md.

Records form a **span hierarchy**: every record carries a ``span_id`` and
a ``parent_id``.  Long-lived enclosing spans (e.g. one ``scheme:bc-spup``
span per rendezvous operation) are opened with :meth:`Tracer.begin` and
closed with :meth:`Span.finish`; any record emitted on the same node while
a span is open is parented to it.  Flat callers that only ever use
:meth:`Tracer.record` keep working unchanged — their records become root
spans (``parent_id == 0``).

While a tracer hangs on ``Simulator.tracer`` the engine also records
causal provenance (the critical path's input, ``repro.obs.profile``) and
the synchronization primitives sample occupancy and queue depths into
:attr:`Tracer.series` and wait times into ``profile.*`` histograms.  Off
(the default) the attribute is ``None``: each site is one ``is not None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.simulator.metrics import MetricsRegistry

__all__ = ["Span", "TraceRecord", "Tracer", "merge_intervals"]

#: (category, node) selector; node None selects all nodes
Selector = Tuple[str, Optional[int]]


def merge_intervals(intervals: Sequence[tuple]) -> list[tuple]:
    """Merge overlapping/touching (start, end) intervals into a sorted
    disjoint list."""
    merged: list[tuple] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class TraceRecord:
    """One traced interval of activity."""

    start: float
    end: float
    node: int
    category: str
    detail: str = ""
    meta: Any = None
    #: unique id of this interval within its tracer (0 = untracked)
    span_id: int = 0
    #: id of the enclosing span, 0 for root spans
    parent_id: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """An open hierarchical span; close it with :meth:`finish`.

    Returned by :meth:`Tracer.begin`.  While open, every record emitted on
    the same node (via :meth:`Tracer.record` or nested :meth:`Tracer.begin`)
    is parented to it.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "start", "node",
                 "category", "detail", "meta", "closed")

    def __init__(self, tracer, span_id, parent_id, start, node, category,
                 detail="", meta=None):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.node = node
        self.category = category
        self.detail = detail
        self.meta = meta
        self.closed = False

    def finish(self, end: float) -> Optional[TraceRecord]:
        """Close the span at simulated time ``end`` and emit its record."""
        if self.closed:
            raise ValueError(f"span {self.span_id} already finished")
        self.closed = True
        return self.tracer._finish_span(self, end)


@dataclass
class Tracer:
    """Collects trace records, counter samples and wait histograms."""

    records: list[TraceRecord] = field(default_factory=list)
    #: where the ``profile.*`` gauges and wait histograms land
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry, repr=False)
    #: (series name, node) -> [(t_us, value)] — queue depths and resource
    #: occupancy over simulated time, for counter tracks
    series: dict = field(default_factory=dict, repr=False)
    #: per-node stack of open span ids (innermost last)
    _open: dict = field(default_factory=dict, repr=False)
    _next_id: int = field(default=0, repr=False)

    # -- span API -----------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def current_span(self, node: int) -> int:
        """Id of the innermost open span on ``node`` (0 if none)."""
        stack = self._open.get(node)
        return stack[-1].span_id if stack else 0

    def begin(
        self,
        start: float,
        node: int,
        category: str,
        detail: str = "",
        meta: Any = None,
    ) -> Span:
        """Open a hierarchical span; records on ``node`` nest under it
        until :meth:`Span.finish` is called."""
        span = Span(
            self, self._new_id(), self.current_span(node), start, node,
            category, detail, meta,
        )
        self._open.setdefault(node, []).append(span)
        return span

    def _finish_span(self, span: Span, end: float) -> TraceRecord:
        stack = self._open.get(span.node, [])
        if span in stack:
            stack.remove(span)
        rec = TraceRecord(
            span.start, end, span.node, span.category, span.detail,
            span.meta, span.span_id, span.parent_id,
        )
        self.records.append(rec)
        return rec

    def record(
        self,
        start: float,
        end: float,
        node: int,
        category: str,
        detail: str = "",
        meta: Any = None,
    ) -> None:
        self.records.append(
            TraceRecord(
                start, end, node, category, detail, meta,
                self._new_id(), self.current_span(node),
            )
        )

    def clear(self) -> None:
        self.records.clear()
        self._open.clear()

    # -- counter samples and wait histograms ---------------------------------

    def sample(self, name: str, node: Optional[int], t: float, value: float) -> None:
        """Append one (t, value) point, collapsing same-time updates."""
        pts = self.series.setdefault((name, node), [])
        if pts and pts[-1][0] == t:
            pts[-1] = (t, value)
        else:
            pts.append((t, value))

    def sample_resource(self, res) -> None:
        """Snapshot a Resource's occupancy and queue length (called on
        every acquire/release)."""
        name = res.name or "resource"
        t = res.sim.now
        self.sample(f"{name}.in_use", res.node, t, float(res.in_use))
        self.sample(f"{name}.queue", res.node, t, float(res.queue_length))
        self.metrics.gauge(f"profile.queue.{name}", res.node).set(
            float(res.queue_length)
        )

    def sample_store(self, store, at: Optional[float] = None) -> None:
        """Snapshot a named Store's depth (called on every put/get; ``at``
        is the time of a pop that is settled later than it happened)."""
        t = store.sim.now if at is None else at
        depth = float(len(store))
        self.sample(f"{store.name}.depth", store.node, t, depth)
        self.metrics.gauge(f"profile.depth.{store.name}", store.node).set(depth)

    def observe_wait(self, name: str, node: Optional[int], wait_us: float) -> None:
        """Record one completed wait (resource grant, store get, signal)."""
        self.metrics.histogram(f"profile.{name}", node).observe(wait_us)

    # -- analysis helpers ---------------------------------------------------

    def iter_category(
        self, category: str, node: Optional[int] = None
    ) -> Iterator[TraceRecord]:
        for rec in self.records:
            if rec.category == category and (node is None or rec.node == node):
                yield rec

    def children(self, span_id: int) -> list[TraceRecord]:
        """Records directly parented to ``span_id``, in emission order."""
        return [r for r in self.records if r.parent_id == span_id]

    def roots(self) -> list[TraceRecord]:
        """Top-level records (no enclosing span)."""
        return [r for r in self.records if r.parent_id == 0]

    def total_time(self, category: str, node: Optional[int] = None) -> float:
        """Sum of durations for a category (intervals may overlap)."""
        return sum(rec.duration for rec in self.iter_category(category, node))

    def intervals(self, category: str, node: Optional[int] = None) -> list[tuple]:
        """Merged activity intervals of one category on one node (or all)."""
        return merge_intervals(
            [(r.start, r.end) for r in self.iter_category(category, node)]
        )

    def busy_time(self, category: str, node: Optional[int] = None) -> float:
        """Union length of the intervals for a category (overlaps merged)."""
        return sum(
            (end - start for start, end in self.intervals(category, node)), 0.0
        )

    def overlap_time(self, a: Selector, b: Selector) -> float:
        """Simulated time during which both selectors were active.

        Each selector is ``(category, node)``; ``node=None`` pools all
        nodes.  Intervals within each selector are merged first, so the
        result is a true intersection length — used to measure how much
        copy time is hidden behind wire time in the pipelined schemes
        (receiver unpack against sender wire included).
        """
        ia = self.intervals(*a)
        ib = self.intervals(*b)
        i = j = 0
        total = 0.0
        while i < len(ia) and j < len(ib):
            lo = max(ia[i][0], ib[j][0])
            hi = min(ia[i][1], ib[j][1])
            if lo < hi:
                total += hi - lo
            if ia[i][1] <= ib[j][1]:
                i += 1
            else:
                j += 1
        return total
