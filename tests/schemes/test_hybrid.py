"""Tests for the hybrid per-piece scheme (the paper's Section 10 future
work: scheme selection "within different parts of a single datatype
message")."""

import numpy as np
import pytest

from repro import Cluster, types
from repro.datatypes.flatten import Flattened
from repro.schemes import hybrid
from tests.mpi.helpers import check_blocks, fill_blocks


def bimodal_datatype(tiny=512, huge=4):
    """``tiny`` 64-byte blocks followed by ``huge`` 128 KB blocks."""
    lengths, disps, pos = [], [], 0
    for _ in range(tiny):
        lengths.append(16)
        disps.append(pos)
        pos += 16 * 4 + 16
    pos = (pos + 4095) // 4096 * 4096
    for _ in range(huge):
        lengths.append(32768)
        disps.append(pos)
        pos += 32768 * 4 + 4096
    return types.hindexed(lengths, disps, types.INT)


def transfer(scheme, dt, iters=1, scheme_options=None):
    span = dt.flatten(1).span + 64

    def rank0(mpi):
        buf = mpi.alloc(span)
        fill_blocks(mpi, buf, dt, 1)
        t0 = mpi.now
        for tag in range(iters):
            yield from mpi.send(buf, dt, 1, dest=1, tag=tag)
        return mpi.now - t0

    def rank1(mpi):
        buf = mpi.alloc(span)
        for tag in range(iters):
            yield from mpi.recv(buf, dt, 1, source=0, tag=tag)
        return check_blocks(mpi, buf, dt, 1)

    cluster = Cluster(2, scheme=scheme, scheme_options=scheme_options or {})
    res = cluster.run([rank0, rank1])
    assert res.values[1] is True
    return res.values[0]


def split_pieces(pieces, threshold):
    """``hybrid.split_pieces`` on piece tuples: arrays in, tuples out."""
    arrays = tuple(np.array(col, dtype=np.int64) for col in zip(*pieces))
    return tuple(
        list(zip(*(a.tolist() for a in part)))
        for part in hybrid.split_pieces(arrays, threshold)
    )


class TestSplitPieces:
    def test_partition_by_threshold(self):
        pieces = [(0, 0, 100), (1, 1, 5000), (2, 2, 4096)]
        direct, packed = split_pieces(pieces, 4096)
        assert direct == [(1, 1, 5000), (2, 2, 4096)]
        assert packed == [(0, 0, 100)]

    def test_all_small(self):
        direct, packed = split_pieces([(0, 0, 10)], 4096)
        assert direct == [] and len(packed) == 1

    def test_all_big(self):
        direct, packed = split_pieces([(0, 0, 10000)], 4096)
        assert len(direct) == 1 and packed == []

    def test_stream_order_preserved(self):
        pieces = [(i, i, 10 + i) for i in range(5)]
        direct, packed = split_pieces(pieces, 12)
        assert packed == [(0, 0, 10), (1, 1, 11)]
        assert direct == [(2, 2, 12), (3, 3, 13), (4, 4, 14)]


class TestCorrectness:
    def test_bimodal(self):
        transfer("hybrid", bimodal_datatype(128, 2))

    def test_all_small_blocks(self):
        transfer("hybrid", types.vector(512, 16, 64, types.INT))

    def test_all_large_blocks(self):
        transfer("hybrid", types.vector(16, 8192, 16384, types.INT))

    def test_asymmetric_layouts(self):
        send_dt = bimodal_datatype(64, 2)
        recv_dt = types.contiguous(send_dt.size // 4, types.INT)
        span_s = send_dt.flatten(1).span + 64
        span_r = recv_dt.extent + 64

        def rank0(mpi):
            buf = mpi.alloc(span_s)
            fill_blocks(mpi, buf, send_dt, 1)
            yield from mpi.send(buf, send_dt, 1, dest=1, tag=0)

        def rank1(mpi):
            buf = mpi.alloc(span_r)
            yield from mpi.recv(buf, recv_dt, 1, source=0, tag=0)
            return check_blocks(mpi, buf, recv_dt, 1)

        res = Cluster(2, scheme="hybrid").run([rank0, rank1])
        assert res.values[1] is True

    # the ref optimization is deliberately disabled under fault injection
    @pytest.mark.faultfree
    def test_repeated_sends_reuse_both_layout_caches(self):
        dt = bimodal_datatype(64, 2)
        cluster = Cluster(2, scheme="hybrid")
        span = dt.flatten(1).span + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            for tag in range(3):
                yield from mpi.send(buf, dt, 1, dest=1, tag=tag)

        def rank1(mpi):
            buf = mpi.alloc(span)
            for tag in range(3):
                yield from mpi.recv(buf, dt, 1, source=0, tag=tag)

        cluster.run([rank0, rank1])
        # sender's layout shipped once, receiver's layout shipped once
        assert cluster.contexts[0].dt_cache.misses == 1  # receiver layout
        assert cluster.contexts[0].dt_cache.hits == 2
        assert cluster.contexts[1].dt_cache.misses == 1  # sender layout
        assert cluster.contexts[1].dt_cache.hits == 2

    def test_threshold_option(self):
        dt = bimodal_datatype(64, 2)
        transfer("hybrid", dt, scheme_options={"split_threshold": 1024})
        transfer("hybrid", dt, scheme_options={"split_threshold": 1 << 20})


class TestPerformance:
    pytestmark = pytest.mark.faultfree  # asserts timings
    def test_hybrid_beats_all_fixed_on_bimodal(self):
        dt = bimodal_datatype(1024, 6)
        times = {
            s: transfer(s, dt, iters=3)
            for s in ("generic", "bc-spup", "rwg-up", "multi-w", "hybrid")
        }
        best_fixed = min(v for k, v in times.items() if k != "hybrid")
        assert times["hybrid"] < best_fixed

    def test_hybrid_close_to_multiw_when_all_big(self):
        dt = types.vector(16, 16384, 32768, types.INT)  # 64 KB blocks
        hybrid = transfer("hybrid", dt, iters=3)
        multiw = transfer("multi-w", dt, iters=3)
        assert hybrid == pytest.approx(multiw, rel=0.10)

    def test_adaptive_routes_bimodal_to_hybrid(self):
        dt = bimodal_datatype(512, 4)
        cluster = Cluster(2, scheme="adaptive")
        span = dt.flatten(1).span + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)

        def rank1(mpi):
            buf = mpi.alloc(span)
            yield from mpi.recv(buf, dt, 1, source=0, tag=0)

        cluster.run([rank0, rank1])
        sel = cluster.contexts[0].get_scheme("adaptive")
        assert list(sel.choices.values()) == ["hybrid"]

    def test_adaptive_hybrid_can_be_disabled(self):
        dt = bimodal_datatype(512, 4)
        cluster = Cluster(
            2, scheme="adaptive", scheme_options={"enable_hybrid": False}
        )
        span = dt.flatten(1).span + 64

        def rank0(mpi):
            buf = mpi.alloc(span)
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)

        def rank1(mpi):
            buf = mpi.alloc(span)
            yield from mpi.recv(buf, dt, 1, source=0, tag=0)

        cluster.run([rank0, rank1])
        sel = cluster.contexts[0].get_scheme("adaptive")
        assert "hybrid" not in sel.choices.values()
