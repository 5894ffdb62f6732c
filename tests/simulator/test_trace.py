"""Unit tests for the tracer's interval arithmetic and span hierarchy."""

import pytest

from repro.simulator import Tracer


def make_tracer(records):
    tr = Tracer(enabled=True)
    for rec in records:
        tr.record(*rec)
    return tr


class TestTracer:
    def test_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.record(0, 1, 0, "cpu")
        assert tr.records == []

    def test_total_time(self):
        tr = make_tracer([(0, 5, 0, "cpu"), (3, 9, 0, "cpu"), (0, 2, 0, "wire")])
        assert tr.total_time("cpu") == 11.0
        assert tr.total_time("wire") == 2.0

    def test_total_time_filters_node(self):
        tr = make_tracer([(0, 5, 0, "cpu"), (0, 3, 1, "cpu")])
        assert tr.total_time("cpu", node=0) == 5.0
        assert tr.total_time("cpu", node=1) == 3.0

    def test_busy_time_merges_overlaps(self):
        tr = make_tracer([(0, 5, 0, "cpu"), (3, 9, 0, "cpu"), (20, 21, 0, "cpu")])
        assert tr.busy_time("cpu") == 10.0

    def test_busy_time_touching_intervals(self):
        tr = make_tracer([(0, 5, 0, "cpu"), (5, 8, 0, "cpu")])
        assert tr.busy_time("cpu") == 8.0

    def test_busy_time_empty(self):
        tr = Tracer(enabled=True)
        assert tr.busy_time("cpu") == 0.0

    def test_overlap_time(self):
        tr = make_tracer(
            [
                (0, 10, 0, "pack"),
                (5, 15, 0, "wire"),
                (20, 30, 0, "pack"),
                (25, 26, 0, "wire"),
            ]
        )
        assert tr.overlap_time(("pack", None), ("wire", None)) == 6.0

    def test_overlap_time_merges_same_category_first(self):
        # regression: the old sweep walked two *unmerged* lists, so two
        # coincident pack intervals against one wire interval counted 20.0
        tr = make_tracer([(0, 10, 0, "pack"), (0, 10, 0, "pack"), (0, 10, 0, "wire")])
        assert tr.overlap_time(("pack", 0), ("wire", 0)) == 10.0

    def test_overlap_time_disjoint(self):
        tr = make_tracer([(0, 5, 0, "pack"), (5, 10, 0, "wire")])
        assert tr.overlap_time(("pack", None), ("wire", None)) == 0.0

    def test_clear(self):
        tr = make_tracer([(0, 5, 0, "cpu")])
        tr.clear()
        assert tr.records == []

    def test_record_fields(self):
        tr = make_tracer([(1.0, 2.0, 3, "reg", "mr0", {"pages": 4})])
        rec = tr.records[0]
        assert rec.duration == 1.0
        assert rec.node == 3
        assert rec.detail == "mr0"
        assert rec.meta == {"pages": 4}

    def test_summary(self):
        tr = make_tracer([(0, 5, 0, "cpu"), (3, 9, 0, "cpu"), (0, 2, 1, "wire")])
        s = tr.summary()
        assert s["cpu"]["total"] == 11.0
        assert s["cpu"]["busy"] == 9.0
        assert s["cpu"]["count"] == 2
        assert s["wire"]["count"] == 1
        s0 = tr.summary(node=0)
        assert "wire" not in s0

    def test_to_csv(self, tmp_path):
        import csv
        from dataclasses import fields

        from repro.simulator.trace import TraceRecord

        tr = make_tracer(
            [(0.0, 5.0, 0, "cpu", "pack"), (5.0, 6.0, 0, "reg", "mr0", "m")]
        )
        path = str(tmp_path / "t" / "trace.csv")
        tr.to_csv(path)
        rows = list(csv.reader(open(path)))
        # the header matches the TraceRecord fields exactly, in order
        assert rows[0] == [f.name for f in fields(TraceRecord)]
        assert rows[0] == [
            "start", "end", "node", "category", "detail", "meta",
            "span_id", "parent_id",
        ]
        # meta is "" when None, and the span ids round-trip
        assert rows[1] == ["0.0", "5.0", "0", "cpu", "pack", "", "1", "0"]
        assert rows[2] == ["5.0", "6.0", "0", "reg", "mr0", "m", "2", "0"]

    # -- edge cases for the interval arithmetic -------------------------

    def test_busy_time_zero_length_interval(self):
        tr = make_tracer([(5, 5, 0, "cpu")])
        assert tr.busy_time("cpu") == 0.0
        assert tr.total_time("cpu") == 0.0

    def test_busy_time_zero_length_inside_interval(self):
        tr = make_tracer([(0, 10, 0, "cpu"), (4, 4, 0, "cpu")])
        assert tr.busy_time("cpu") == 10.0

    def test_overlap_time_zero_length_intervals(self):
        # a zero-length interval intersects nothing, even when it sits
        # inside the other category's interval
        tr = make_tracer([(3, 3, 0, "pack"), (0, 10, 0, "wire")])
        assert tr.overlap_time(("pack", None), ("wire", None)) == 0.0

    def test_overlap_time_exactly_touching(self):
        # [0,5) and [5,10) share only the boundary point: no overlap
        tr = make_tracer([(0, 5, 0, "pack"), (5, 10, 0, "wire")])
        assert tr.overlap_time(("pack", None), ("wire", None)) == 0.0
        assert tr.overlap_time(("wire", None), ("pack", None)) == 0.0

    def test_overlap_time_single_record_categories(self):
        tr = make_tracer([(0, 10, 0, "pack"), (4, 6, 0, "wire")])
        assert tr.overlap_time(("pack", None), ("wire", None)) == 2.0
        assert tr.overlap_time(("wire", None), ("pack", None)) == 2.0

    def test_overlap_time_identical_intervals(self):
        tr = make_tracer([(2, 8, 0, "pack"), (2, 8, 0, "wire")])
        assert tr.overlap_time(("pack", None), ("wire", None)) == 6.0

    def test_busy_time_single_record(self):
        tr = make_tracer([(1, 4, 0, "cpu")])
        assert tr.busy_time("cpu") == 3.0


class TestSpans:
    def test_record_is_root_span(self):
        tr = make_tracer([(0, 1, 0, "cpu")])
        rec = tr.records[0]
        assert rec.span_id == 1
        assert rec.parent_id == 0
        assert tr.roots() == [rec]

    def test_begin_finish_parents_nested_records(self):
        tr = Tracer(enabled=True)
        span = tr.begin(0.0, 0, "scheme:bc-spup", "send")
        tr.record(1.0, 2.0, 0, "pack")
        tr.record(2.0, 3.0, 0, "wire")
        span.finish(4.0)
        pack, wire, scheme = tr.records
        assert scheme.category == "scheme:bc-spup"
        assert scheme.start == 0.0 and scheme.end == 4.0
        assert pack.parent_id == scheme.span_id
        assert wire.parent_id == scheme.span_id
        assert tr.children(scheme.span_id) == [pack, wire]

    def test_spans_nest(self):
        tr = Tracer(enabled=True)
        outer = tr.begin(0.0, 0, "outer")
        inner = tr.begin(1.0, 0, "inner")
        tr.record(1.0, 2.0, 0, "cpu")
        inner.finish(2.0)
        outer.finish(3.0)
        cpu, inner_rec, outer_rec = tr.records
        assert cpu.parent_id == inner_rec.span_id
        assert inner_rec.parent_id == outer_rec.span_id
        assert outer_rec.parent_id == 0

    def test_spans_per_node_independent(self):
        tr = Tracer(enabled=True)
        s0 = tr.begin(0.0, 0, "op")
        tr.record(0.0, 1.0, 1, "cpu")  # other node: not nested
        s0.finish(1.0)
        cpu = tr.records[0]
        assert cpu.parent_id == 0

    def test_finish_twice_raises(self):
        tr = Tracer(enabled=True)
        span = tr.begin(0.0, 0, "op")
        span.finish(1.0)
        with pytest.raises(ValueError):
            span.finish(2.0)

    def test_disabled_tracer_spans_are_inert(self):
        tr = Tracer(enabled=False)
        span = tr.begin(0.0, 0, "op")
        assert span.span_id == 0
        assert span.finish(1.0) is None
        assert tr.records == []

    def test_clear_resets_open_spans(self):
        tr = Tracer(enabled=True)
        tr.begin(0.0, 0, "op")
        tr.clear()
        assert tr.current_span(0) == 0
