"""Smoke + semantic tests for the measurement runners and overlap tool.

These use reduced iteration counts; the full sweeps live in benchmarks/.
"""

import pytest

from repro.bench.overlap import overlap_report
from repro.bench.runner import (
    contig_leg,
    manual_leg,
    measure_alltoall,
    measure_bandwidth,
    measure_pingpong,
    multiple_leg,
    traced_oneway,
)
from repro.bench.workloads import column_vector, fig10_struct
from repro.datatypes import BYTE, contiguous

# timing anchors are meaningless under fault injection
pytestmark = pytest.mark.faultfree


class TestPingpong:
    def test_returns_positive_latency(self):
        w = column_vector(64)
        t = measure_pingpong("bc-spup", w.datatype, iters=2)
        assert t > 0

    def test_warmup_excluded(self):
        """With a registration-heavy scheme, measuring with warmup must be
        cheaper than measuring the cold iteration."""
        w = column_vector(512)
        warm = measure_pingpong("multi-w", w.datatype, iters=2, warmup=1)
        cold = measure_pingpong("multi-w", w.datatype, iters=1, warmup=0)
        assert warm < cold

    def test_latency_monotonic_in_size(self):
        small = measure_pingpong("generic", column_vector(32).datatype, iters=2)
        large = measure_pingpong("generic", column_vector(1024).datatype, iters=2)
        assert large > small

    def test_contig_faster_than_datatype(self):
        w = column_vector(256)
        contig = measure_pingpong(
            "bc-spup", contiguous(w.nbytes, BYTE), iters=2
        )
        datatype = measure_pingpong("generic", w.datatype, iters=2)
        assert contig < datatype

    def test_contig_leg_is_the_contiguous_layout(self):
        """Figure 2's "Contig" series: the layout's byte count as one
        block is the same experiment as sending that contiguous type."""
        w = column_vector(256)
        assert measure_pingpong(
            "generic", w.datatype, iters=2, leg=contig_leg
        ) == measure_pingpong("generic", contiguous(w.nbytes, BYTE), iters=2)

    def test_manual_close_to_datatype(self):
        w = column_vector(256)
        manual = measure_pingpong(
            "generic", w.datatype, iters=2, leg=manual_leg
        )
        datatype = measure_pingpong("generic", w.datatype, iters=2)
        assert manual == pytest.approx(datatype, rel=0.15)

    def test_multiple_pays_per_block(self):
        w = column_vector(8)
        multiple = measure_pingpong(
            "generic", w.datatype, iters=1, leg=multiple_leg
        )
        datatype = measure_pingpong("generic", w.datatype, iters=1)
        assert multiple > datatype


class TestBandwidth:
    def test_bandwidth_sane(self):
        w = column_vector(512)
        bw = measure_bandwidth("bc-spup", w.datatype, window=20)
        assert 50 < bw < 900  # below wire rate, above nonsense

    def test_bandwidth_grows_with_message_size(self):
        small = measure_bandwidth("bc-spup", column_vector(16).datatype, window=20)
        large = measure_bandwidth("bc-spup", column_vector(512).datatype, window=20)
        assert large > small


class TestAlltoall:
    def test_alltoall_time_scales(self):
        small = measure_alltoall("bc-spup", fig10_struct(2048).datatype, nranks=4, iters=1)
        large = measure_alltoall("bc-spup", fig10_struct(16384).datatype, nranks=4, iters=1)
        assert large > small


class TestOverlap:
    def test_generic_hides_nothing(self):
        w = column_vector(1024)
        rep = overlap_report(traced_oneway("generic", w.datatype))
        assert rep.pack_hidden_fraction == pytest.approx(0.0, abs=0.02)
        assert rep.unpack_hidden_fraction == pytest.approx(0.0, abs=0.02)

    def test_bcspup_hides_pack(self):
        w = column_vector(1024)
        rep = overlap_report(traced_oneway("bc-spup", w.datatype))
        assert rep.pack_hidden_fraction > 0.2

    def test_rwgup_hides_unpack(self):
        w = column_vector(1024)
        rep = overlap_report(traced_oneway("rwg-up", w.datatype))
        assert rep.pack_us == 0.0  # no sender-side copy at all
        assert rep.unpack_hidden_fraction > 0.2

    def test_multiw_copies_nothing(self):
        w = column_vector(1024)
        rep = overlap_report(traced_oneway("multi-w", w.datatype))
        assert rep.pack_us == 0.0
        assert rep.unpack_us == 0.0

    def test_describe_readable(self):
        w = column_vector(256)
        text = overlap_report(traced_oneway("bc-spup", w.datatype)).describe()
        assert "bc-spup" in text and "hidden" in text
