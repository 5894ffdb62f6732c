"""Span/interval queries over a Tracer (cross-node selectors, span tree)."""

from repro.simulator import Tracer
from repro.simulator.trace import merge_intervals


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert merge_intervals([(5, 6), (0, 1)]) == [(0, 1), (5, 6)]

    def test_overlapping_and_touching(self):
        assert merge_intervals([(0, 2), (1, 4), (4, 5), (7, 8)]) == [(0, 5), (7, 8)]

    def test_contained(self):
        assert merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]


class TestOverlap:
    def make_tracer(self):
        tr = Tracer()
        tr.record(0, 10, 0, "pack")
        tr.record(5, 15, 0, "wire")
        tr.record(12, 14, 1, "unpack")
        return tr

    def test_same_node_overlap(self):
        tr = self.make_tracer()
        assert tr.overlap_time(("pack", 0), ("wire", 0)) == 5.0

    def test_cross_node_overlap(self):
        tr = self.make_tracer()
        assert tr.overlap_time(("unpack", 1), ("wire", 0)) == 2.0

    def test_node_none_pools_all(self):
        tr = self.make_tracer()
        tr.record(13, 20, 1, "pack")
        assert tr.overlap_time(("pack", None), ("wire", 0)) == 7.0

    def test_merging_prevents_double_count(self):
        tr = Tracer()
        # two overlapping pack intervals against one wire interval: the
        # intersection must count the union, not each interval separately
        tr.record(0, 10, 0, "pack")
        tr.record(0, 10, 0, "pack")
        tr.record(0, 10, 0, "wire")
        assert tr.overlap_time(("pack", 0), ("wire", 0)) == 10.0

    def test_category_intervals_merged(self):
        tr = Tracer()
        tr.record(0, 3, 0, "cpu")
        tr.record(2, 5, 0, "cpu")
        assert tr.intervals("cpu", 0) == [(0, 5)]


class TestSpanTree:
    def test_tree_structure(self):
        tr = Tracer()
        op = tr.begin(0.0, 0, "scheme:bc-spup")
        tr.record(1.0, 2.0, 0, "pack")
        tr.record(2.0, 3.0, 0, "wire")
        op.finish(3.0)
        tr.record(4.0, 5.0, 0, "reg")  # root-level record
        scheme_rec = next(r for r in tr.records if r.category == "scheme:bc-spup")
        assert {r.category for r in tr.children(scheme_rec.span_id)} == {
            "pack", "wire",
        }
        assert {r.category for r in tr.roots()} == {"scheme:bc-spup", "reg"}
