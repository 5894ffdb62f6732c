"""Calibration regression anchors (DESIGN.md Section 4).

These tests pin the simulated platform to the paper's testbed numbers so
future cost-model edits cannot silently drift the reproduction:

* large-message contiguous bandwidth ~ 840-870 MB/s,
* small-message contiguous latency in the single-digit microseconds,
* memcpy comparable to (somewhat below) the wire,
* registration costs that make "DT + reg" visibly painful.
"""

import numpy as np
import pytest

from repro import Cluster, CostModel, types
from repro.bench.runner import measure_bandwidth, measure_pingpong
from repro.ib.costmodel import MB

# timing anchors are meaningless under fault injection
pytestmark = pytest.mark.faultfree


class TestContiguousAnchors:
    def test_small_message_latency_single_digit_us(self):
        lat = measure_pingpong(
            "bc-spup", types.contiguous(8, types.BYTE), iters=4
        )
        assert 4.0 < lat < 14.0, lat

    def test_large_message_bandwidth_near_wire(self):
        dt = types.contiguous(1 * MB, types.BYTE)
        bw = measure_bandwidth("bc-spup", dt, window=30)
        # contiguous transfers are zero-copy: most of the 870 MB/s wire
        assert 700 < bw < 880, bw

    def test_half_bandwidth_point_reasonable(self):
        """N1/2 (size reaching half of peak bandwidth) should sit in the
        single-digit-KB range, as on the real interconnect."""
        peak = measure_bandwidth("bc-spup", types.contiguous(1 * MB, types.BYTE), window=30)
        for size in (1024, 2048, 4096, 8192, 16384, 32768):
            bw = measure_bandwidth("bc-spup", types.contiguous(size, types.BYTE), window=30)
            if bw >= peak / 2:
                assert 2048 <= size <= 32768, size
                break
        else:
            pytest.fail("never reached half of peak bandwidth")


class TestCostStructureAnchors:
    def test_memcpy_below_wire(self):
        cm = CostModel.mellanox_2003()
        assert cm.copy_bandwidth < cm.wire_bandwidth
        assert cm.copy_bandwidth > 0.5 * cm.wire_bandwidth

    def test_registration_significant_vs_copy(self):
        """Registering 1 MB must cost a nontrivial fraction of copying
        it — the premise of Figure 14 and Section 6's trade-off."""
        cm = CostModel.mellanox_2003()
        reg = cm.reg_time(1 * MB)
        copy = cm.copy_time(1 * MB)
        assert 0.05 < reg / copy < 0.5, reg / copy

    def test_rdma_read_slower_than_write(self):
        cm = CostModel.mellanox_2003()
        assert cm.rdma_read_bandwidth < cm.wire_bandwidth

    def test_post_cost_vs_descriptor_time(self):
        """Single-post CPU cost must exceed the HCA's per-descriptor
        overhead for small payloads — otherwise Figure 13's list-post
        effect could not exist."""
        cm = CostModel.mellanox_2003()
        assert cm.post_descriptor > cm.descriptor_time(128, 1) - cm.wire_time(128)


class TestEndToEndAnchors:
    def test_datatype_quarter_of_contig(self):
        """The Figure 2 headline: datatype communication reaches no more
        than ~a quarter (here <= 0.35) of contiguous performance."""
        cols = 1024
        dt = types.vector(128, cols, 4096, types.INT)
        datatype = measure_pingpong("generic", dt, iters=3)
        contig = measure_pingpong(
            "bc-spup", types.contiguous(dt.size, types.BYTE), iters=3
        )
        assert contig / datatype < 0.35

    def test_multiw_headline_factor(self):
        """Figure 8's headline: Multi-W improves 1 MB vector latency by
        ~3x (paper: 3.4x, ours: >= 2.4x)."""
        dt = types.vector(128, 2048, 4096, types.INT)
        gen = measure_pingpong("generic", dt, iters=3)
        mw = measure_pingpong("multi-w", dt, iters=3)
        assert gen / mw > 2.4
