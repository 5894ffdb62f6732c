"""Golden pin of the rendezvous scheme layer's simulated outputs.

The figures only ever transfer the same layout on both sides with
default options; nothing else pinned simulated *time* for sender !=
receiver layouts, disabled pools / registration cache, fault profiles or
scheme options.  ``golden/rendezvous.json`` maps ``pair|scheme|config``
to ``[repr(time_us), sim.events_processed, sha256(receive buffer)]`` for
a grid chosen to cross every shared helper in ``schemes/base.py``; it
was generated at the commit *before* the scheme toolkit refactor, and a
refactor of the scheme layer must leave it byte-identical.  Regenerate
(only for an intended cost-model or protocol change) with

    PYTHONPATH=src python -m tests.schemes.test_rendezvous_golden \
        > tests/schemes/golden/rendezvous.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Cluster, types
from repro.bench.workloads import fig10_struct
from repro.faults import FaultPlan
from repro.ib.costmodel import MB
from tests.conservation import assert_conserved

GOLDEN = Path(__file__).parent / "golden" / "rendezvous.json"

pytestmark = pytest.mark.faultfree

_INTS = 16384  # 64 KiB: rendezvous, two segments under the static rule


def _bimodal():
    """hindexed with blocks from 4 B to 24 KB and irregular gaps."""
    lengths = [1, 3, 4096, 2, 8, 2048, 5, 6144, 17, 64, 1024, 2972]
    assert sum(lengths) == _INTS
    disps, pos = [], 0
    for i, ln in enumerate(lengths):
        pos += (i * 37) % 96 + 4
        disps.append(pos)
        pos += ln * 4
    return types.hindexed(lengths, disps, types.INT)


LAYOUTS = {
    "v16": types.vector(4096, 4, 8, types.INT),
    "v1k": types.vector(64, 256, 300, types.INT),
    "v8k": types.vector(8, 2048, 2100, types.INT),
    "hx": _bimodal(),
    "contig": types.contiguous(_INTS, types.INT),
    "fig10": fig10_struct(32768).datatype,
}

PAIRS = (
    ("v16", "v16"), ("v1k", "v1k"), ("hx", "hx"), ("fig10", "fig10"),
    ("v16", "contig"), ("contig", "v1k"), ("v1k", "hx"), ("hx", "v16"),
    ("v8k", "v1k"),
)

SCHEMES = ("generic", "bc-spup", "rwg-up", "p-rrs", "multi-w", "hybrid")

_LOSSY = {"fault_plan": ("lossy", 7)}

#: (send layout, recv layout, scheme, config label, Cluster kwargs)
CELLS = [
    (s, r, scheme, "default", {}) for s, r in PAIRS for scheme in SCHEMES
] + [
    (s, r, "hybrid", f"split{t}", {"scheme_options": {"split_threshold": t}})
    for s, r in (("hx", "v16"), ("v1k", "hx"), ("fig10", "fig10"))
    for t in (64, MB)
] + [
    ("hx", "v16", "multi-w", "no-list-post",
     {"scheme_options": {"list_post": False}}),
    ("hx", "hx", "hybrid", "no-list-post",
     {"scheme_options": {"list_post": False}}),
    ("v16", "v16", "rwg-up", "deferred-unpack",
     {"scheme_options": {"segment_unpack": False}}),
    ("v1k", "hx", "rwg-up", "deferred-unpack",
     {"scheme_options": {"segment_unpack": False}}),
    ("v1k", "hx", "multi-w", "reg-per-block",
     {"scheme_options": {"registration_mode": "per-block"}}),
    ("v1k", "hx", "multi-w", "reg-whole",
     {"scheme_options": {"registration_mode": "whole"}}),
    ("v1k", "hx", "rwg-up", "reg-per-block",
     {"scheme_options": {"registration_mode": "per-block"}}),
    ("v1k", "hx", "rwg-up", "reg-whole",
     {"scheme_options": {"registration_mode": "whole"}}),
    ("v1k", "hx", "multi-w", "no-dtype-cache",
     {"scheme_options": {"use_dtype_cache": False}}),
    ("v16", "v1k", "generic", "fresh-buffers",
     {"scheme_options": {"fresh_buffers": True}}),
    ("v16", "v1k", "bc-spup", "segsize8k",
     {"scheme_options": {"segment_size": 8192}}),
] + [
    ("hx", "v16", scheme, "no-pools", {"staging_pools": False})
    for scheme in ("bc-spup", "rwg-up", "p-rrs", "hybrid")
] + [
    ("v1k", "hx", scheme, "no-reg-cache", {"reg_cache_bytes": 0})
    for scheme in ("rwg-up", "p-rrs", "multi-w", "hybrid", "adaptive")
] + [
    ("hx", "v16", scheme, "lossy7", _LOSSY) for scheme in SCHEMES
] + [
    (s, r, "adaptive", "default", {})
    for s, r in (("v16", "v16"), ("v8k", "v1k"), ("hx", "hx"), ("fig10", "fig10"))
]


def _fill(mpi, addr, dt, seed):
    """Deterministic bytes in every data block of ``dt`` at ``addr``."""
    flat = dt.flatten(1)
    stream = np.random.default_rng(seed).integers(0, 255, flat.size, dtype=np.uint8)
    pos = 0
    for off, ln in flat.blocks():
        mpi.node.memory.view(addr + off, ln)[:] = stream[pos : pos + ln]
        pos += ln


def _span(dt):
    return dt.flatten(1).span + abs(dt.lb) + 64


def _cluster(scheme, kwargs):
    kwargs = dict(kwargs)
    plan = kwargs.pop("fault_plan", None)
    kwargs["fault_plan"] = (
        FaultPlan.from_profile(plan[0], seed=plan[1]) if plan else FaultPlan()
    )
    return Cluster(2, scheme=scheme, memory_per_rank=64 * MB, **kwargs)


def run_cell(send, recv, scheme, kwargs, iters=2):
    """Two back-to-back transfers (the second crosses the warm datatype
    cache, pin-down cache and staging pools); returns the cell's pin."""
    send_dt, recv_dt = LAYOUTS[send], LAYOUTS[recv]
    digest = hashlib.sha256()

    def rank0(mpi):
        buf = mpi.alloc(_span(send_dt))
        for i in range(iters):
            _fill(mpi, buf, send_dt, i)
            yield from mpi.send(buf, send_dt, 1, dest=1, tag=i)

    def rank1(mpi):
        buf = mpi.alloc(_span(recv_dt))
        for i in range(iters):
            yield from mpi.recv(buf, recv_dt, 1, source=0, tag=i)
            digest.update(mpi.node.memory.view(buf, _span(recv_dt)).tobytes())

    cluster = _cluster(scheme, kwargs)
    res = cluster.run([rank0, rank1])
    assert_conserved(cluster)
    return [repr(res.time_us), cluster.sim.events_processed, digest.hexdigest()]


def run_put_fence():
    """One asymmetric ``put`` + ``fence`` (``rma.put`` shares the
    per-piece write builder with Multi-W and Hybrid)."""
    origin_dt, target_dt = LAYOUTS["v1k"], LAYOUTS["hx"]
    digest = hashlib.sha256()

    def program(mpi):
        win_buf = mpi.alloc(_span(target_dt))
        win = yield from mpi.win_create(win_buf, _span(target_dt))
        if mpi.rank == 0:
            src = mpi.alloc(_span(origin_dt))
            _fill(mpi, src, origin_dt, 0)
            yield from mpi.win_fence(win)
            yield from mpi.put(win, 1, src, origin_dt, 1, 0, target_dt, 1)
            yield from mpi.win_fence(win)
        else:
            yield from mpi.win_fence(win)
            yield from mpi.win_fence(win)
            digest.update(mpi.node.memory.view(win_buf, _span(target_dt)).tobytes())

    cluster = _cluster("multi-w", {})
    res = cluster.run(program)
    assert_conserved(cluster)
    return [repr(res.time_us), cluster.sim.events_processed, digest.hexdigest()]


def compute():
    out = {
        f"{s}>{r}|{scheme}|{label}": run_cell(s, r, scheme, kwargs)
        for s, r, scheme, label, kwargs in CELLS
    }
    out["v1k>hx|rma|put-fence"] = run_put_fence()
    return out


def test_rendezvous_golden():
    """``python -m tests.schemes.test_rendezvous_golden``"""
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert len(got) == len(CELLS) + 1  # no two cells share a key
    assert set(got) == set(golden)
    wrong = {k: (got[k], golden[k]) for k in golden if got[k] != golden[k]}
    assert not wrong


def test_a_call_owed_past_quiescence_is_not_conserved():
    """The sanitizer's first check: a call owed and never paid (the CQE of
    a descriptor, a landing, a trigger) is reported before what it hides."""
    cluster = _cluster("generic", {})
    cluster.run(_idle)
    assert_conserved(cluster)
    sim = cluster.sim
    sim._owed = (sim.now + 1.0, sim._seq + 1, print, None, "cqe")
    with pytest.raises(AssertionError, match="still owed"):
        assert_conserved(cluster)


def _idle(mpi):
    return
    yield


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1, sort_keys=True))
