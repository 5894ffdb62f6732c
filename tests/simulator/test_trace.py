"""Unit tests for the tracer's interval arithmetic and span hierarchy."""

import pytest

from repro.simulator import Simulator, Tracer


def make_tracer(records):
    tr = Tracer()
    for rec in records:
        tr.record(*rec)
    return tr


class TestTracer:
    def test_disabled_records_nothing(self):
        # off is no tracer at all: CPU work on an untraced node runs and
        # holds no instrument; the same work on a traced one is one record
        from repro.ib import CostModel, Fabric

        def cpu_work(sim):
            node = Fabric(sim, CostModel.mellanox_2003()).add_node(1 << 16)
            sim.process(node.cpu_work(2.0))
            sim.run()
            return node

        sim = Simulator()
        assert sim.tracer is None and "tracer" not in vars(cpu_work(sim))
        traced = Simulator()
        traced.tracer = Tracer()
        cpu_work(traced)
        assert [(r.start, r.end, r.category) for r in traced.tracer.records] == [
            (0.0, 2.0, "cpu")
        ]

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
        tr = Tracer()
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
        tr = Tracer()
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
        tr = Tracer()
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
        tr = Tracer()
        s0 = tr.begin(0.0, 0, "op")
        tr.record(0.0, 1.0, 1, "cpu")  # other node: not nested
        s0.finish(1.0)
        cpu = tr.records[0]
        assert cpu.parent_id == 0

    def test_finish_twice_raises(self):
        tr = Tracer()
        span = tr.begin(0.0, 0, "op")
        span.finish(1.0)
        with pytest.raises(ValueError):
            span.finish(2.0)

    def test_disabled_tracer_spans_are_inert(self, monkeypatch):
        # untraced, a rendezvous opens no scheme span: nothing calls begin
        from repro.bench.runner import make_cluster, run_oneway
        from repro.bench.workloads import column_vector

        def begin(*_args, **_kwargs):
            raise AssertionError("a span was opened on an untraced run")

        monkeypatch.setattr(Tracer, "begin", begin)
        result = run_oneway(make_cluster("bc-spup"), column_vector(64).datatype)
        assert result.cluster.tracer is None

    def test_clear_resets_open_spans(self):
        tr = Tracer()
        tr.begin(0.0, 0, "op")
        tr.clear()
        assert tr.current_span(0) == 0
