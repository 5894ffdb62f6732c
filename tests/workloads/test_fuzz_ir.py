"""The fuzz grammar and its static oracle."""

import pytest
from hypothesis import HealthCheck, given, seed, settings

from repro.schemes import SCHEME_NAMES
from repro.workloads import ir
from repro.workloads.fuzz import (
    MESSAGE_SIZES,
    _type_node,
    check_workload,
    expected_payloads,
    fuzz_time_boxed,
    workloads,
)
from repro.workloads.replay import fill_pattern

_SETTINGS = dict(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_message_sizes_straddle_eager_threshold():
    assert any(s <= 8192 for s in MESSAGE_SIZES)
    assert any(s > 8192 for s in MESSAGE_SIZES)


@pytest.mark.parametrize("size,depth", [(2, 1), (3, 2)])
def test_type_node_draws_at_tiny_sizes(size, depth):
    # a struct of a 2-byte node once asked for 3 parts — two distinct cut
    # points out of one candidate — and Hypothesis raised InvalidArgument
    drawn = []

    @seed(0)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_type_node(size, depth))
    def draw_all(node):
        drawn.append(node)

    draw_all()
    assert {node["type"] for node in drawn} >= {"struct", "hindexed"}


@given(workloads())
@settings(**_SETTINGS)
def test_oracle_holds_on_generated_programs(workload):
    assert workload.scheme in SCHEME_NAMES
    check_workload(workload)


@given(workloads())
@settings(**_SETTINGS)
def test_oracle_pairs_every_receive(workload):
    expected = expected_payloads(workload)
    nrecvs = sum(
        isinstance(op, (ir.Irecv, ir.Recv))
        for rank_ops in workload.ranks
        for op in rank_ops
    )
    # the grammar generates both endpoints for every message, so every
    # receive has a statically matched send
    assert len(expected) == nrecvs
    assert all(payload is not None for payload in expected.values())


def _simple(types, rank0, rank1, name="t"):
    return ir.Workload(
        name=name, nranks=2, ranks=(tuple(rank0), tuple(rank1)),
        types=types,
    )


_BYTE = {"type": "primitive", "name": "byte"}


def test_oracle_computes_fill_bytes():
    types = {"c": {"type": "contiguous", "count": 64, "base": _BYTE}}
    rank0 = [
        ir.Alloc(buf="a", nbytes=64),
        ir.Fill(buf="a", offset=0, nbytes=64, a=5, b=2, mod=97),
        ir.Isend(req="s", buf="a", offset=0, type="c", count=1,
                 dest=1, tag=0),
        ir.Wait(req="s"),
    ]
    rank1 = [
        ir.Alloc(buf="x", nbytes=64),
        ir.Irecv(req="r", buf="x", offset=0, type="c", count=1,
                 source=0, tag=0),
        ir.Wait(req="r"),
    ]
    expected = expected_payloads(_simple(types, rank0, rank1))
    assert expected == {(1, "r"): fill_pattern(64, 5, 2, 97).tobytes()}


def test_oracle_marks_forwarded_bytes_unknowable():
    """A send reading a buffer that a receive targeted is tainted: its
    bytes depend on delivery, so the static oracle must return None."""
    types = {"c": {"type": "contiguous", "count": 8, "base": _BYTE}}
    rank0 = [
        ir.Alloc(buf="a", nbytes=8),
        ir.Fill(buf="a", offset=0, nbytes=8, a=1, b=1, mod=251),
        ir.Isend(req="s", buf="a", offset=0, type="c", count=1,
                 dest=1, tag=0),
        ir.Wait(req="s"),
    ]
    rank1 = [
        ir.Alloc(buf="x", nbytes=8),
        ir.Irecv(req="r", buf="x", offset=0, type="c", count=1,
                 source=0, tag=0),
        ir.Wait(req="r"),
        # forward the received buffer back
        ir.Isend(req="s2", buf="x", offset=0, type="c", count=1,
                 dest=0, tag=1),
        ir.Wait(req="s2"),
    ]
    rank0 += [
        ir.Alloc(buf="y", nbytes=8),
        ir.Irecv(req="r2", buf="y", offset=0, type="c", count=1,
                 source=1, tag=1),
        ir.Wait(req="r2"),
    ]
    expected = expected_payloads(_simple(types, rank0, rank1))
    assert expected[(1, "r")] is not None
    assert expected[(0, "r2")] is None  # forwarded — not knowable


def test_fuzz_time_boxed_clean_run_reports_ok():
    report = fuzz_time_boxed(3, seed=1)
    assert report.ok
    assert report.examples > 0
    assert report.chunks >= 1


def test_fuzz_time_boxed_is_deterministic_per_seed():
    a = fuzz_time_boxed(2, seed=9)
    b = fuzz_time_boxed(2, seed=9)
    assert a.ok and b.ok
    # same seed explores the same chunks; only the count of chunks that
    # fit the box may differ
    assert a.failure == b.failure


def test_fuzz_box_conserves_bytes(monkeypatch):
    """Every cluster the fuzz box runs ends with Σ injected = Σ delivered
    (+ dropped), no write waiting to land and no DMA window open; a
    violation surfaces as the box's counterexample."""
    from repro.mpi.world import Cluster
    from tests.conservation import assert_conserved

    run, checked = Cluster.run, []

    def run_then_check(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        assert_conserved(self)
        checked.append(self)
        return result

    monkeypatch.setattr(Cluster, "run", run_then_check)
    report = fuzz_time_boxed(3, seed=4)
    assert report.ok, report.failure
    assert len(checked) >= report.examples > 0
