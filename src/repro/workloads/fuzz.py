"""Hypothesis grammar over the workload IR + the protocol oracle.

The grammar (:func:`workloads`) generates programs that are *valid by
construction* — every message has both endpoints, request names are
fresh, buffers are sized from the datatype's true span, per-stream
receive posts keep FIFO order — so all fuzz effort goes into semantic
corner cases: eager/rendezvous straddle within one (src, dst, tag)
stream, tag collisions, posting order (expected vs unexpected arrival),
nonblocking overlap, and datatype nesting (contiguous / hvector /
hindexed / struct over BYTE, nested up to three deep).

The oracle (:func:`expected_payloads`) is *static*: it computes each
receive's expected wire bytes from the IR alone (abstract memory from
``fill``/``data`` ops, per-stream FIFO matching, packed bytes via the
send type's flatten).  :func:`check_workload` replays a program and
asserts every delivered payload against its SHA-256 — the invariant that re-finds
the PR 2 matching-order hole when ``tests/workloads/test_mutation.py``
monkeypatches ``RankContext._admit`` back to its pre-fix form.

:func:`fuzz_time_boxed` drives seeded Hypothesis runs until a deadline,
writing any (shrunk) counterexample as a workload JSON artifact — CI
uploads it and it graduates into ``tests/workloads/corpus/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Optional

import numpy as np
from hypothesis import HealthCheck, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro.schemes import SCHEME_NAMES
from repro.workloads import ir
from repro.workloads.ir import Workload, build_type
from repro.workloads.replay import replay

__all__ = [
    "FuzzReport",
    "MESSAGE_SIZES",
    "check_workload",
    "expected_payloads",
    "fuzz_time_boxed",
    "workloads",
]

_BYTE = {"type": "primitive", "name": "byte"}

#: payload sizes straddling the 8192 B eager threshold (mellanox_2003)
MESSAGE_SIZES = (1, 64, 512, 4096, 8192, 8193, 12288, 20000)

#: eager/rendezvous pair for the biased straddle stream
_STRADDLE_SMALL = 4096
_STRADDLE_LARGE = 12288


# ----------------------------------------------------------------------
# datatype grammar: nested nodes over BYTE with an exact total size
# ----------------------------------------------------------------------

def _hi(node: dict) -> int:
    """Last occupied byte (from offset 0) of one element of ``node``.

    The packing footprint, not the extent: a node whose lb > 0 has
    extent < span, and using extent for strides/cursors would let
    replicas overlap.
    """
    return ir.span(build_type(node), 1)[1] or 1


@st.composite
def _type_node(draw, size: int, depth: int):
    """A type node of exactly ``size`` data bytes, nested <= ``depth``."""
    if size < 2 or depth <= 0:
        return {"type": "contiguous", "count": size, "base": _BYTE}
    kind = draw(st.sampled_from(
        ("contiguous", "hvector", "hindexed", "struct")
    ))
    if kind == "contiguous":
        return {"type": "contiguous", "count": size, "base": _BYTE}
    if kind == "hvector":
        nblocks = draw(
            st.sampled_from([n for n in (2, 3, 4, 8) if size % n == 0]
                            or [1])
        )
        block = size // nblocks
        inner = draw(_type_node(block, depth - 1))
        gap = draw(st.integers(min_value=0, max_value=64))
        return {
            "type": "hvector",
            "count": nblocks,
            "blocklength": 1,
            "stride_bytes": _hi(inner) + gap,
            "base": inner,
        }
    if kind == "hindexed":
        nblocks = draw(st.integers(min_value=1, max_value=min(4, size)))
        cuts = sorted(draw(st.sets(
            st.integers(min_value=1, max_value=size - 1),
            min_size=nblocks - 1, max_size=nblocks - 1,
        ))) if nblocks > 1 else []
        lengths = [
            b - a for a, b in zip([0] + cuts, cuts + [size])
        ]
        disps = []
        cursor = 0
        for length in lengths:
            cursor += draw(st.integers(min_value=0, max_value=32))
            disps.append(cursor)
            cursor += length
        return {
            "type": "hindexed",
            "blocklengths": lengths,
            "displacements_bytes": disps,
            "base": _BYTE,
        }
    # struct of nested parts
    nparts = draw(st.integers(min_value=1, max_value=min(3, size)))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=1, max_value=size - 1),
        min_size=nparts - 1, max_size=nparts - 1,
    ))) if nparts > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    bases = []
    disps = []
    cursor = 0
    for part in sizes:
        base = draw(_type_node(part, depth - 1))
        cursor += draw(st.integers(min_value=0, max_value=32))
        bases.append(base)
        disps.append(cursor)
        cursor += _hi(base)
    return {
        "type": "struct",
        "blocklengths": [1] * len(bases),
        "displacements_bytes": disps,
        "bases": bases,
    }


# ----------------------------------------------------------------------
# program grammar
# ----------------------------------------------------------------------

def _stream_shuffle(draw, items, stream_of):
    """A permutation of ``items`` preserving per-stream relative order."""
    if len(items) < 2:
        return list(items)
    perm = draw(st.permutations(range(len(items))))
    queues: dict[Any, list] = {}
    for item in items:
        queues.setdefault(stream_of(item), []).append(item)
    iters = {key: iter(q) for key, q in queues.items()}
    return [next(iters[stream_of(items[i])]) for i in perm]


@st.composite
def workloads(draw) -> Workload:
    """A well-formed point-to-point workload program."""
    nranks = draw(st.integers(min_value=2, max_value=4))
    scheme = draw(st.sampled_from(SCHEME_NAMES))
    eager_rdma = draw(st.booleans())

    # messages: (src, dst, tag, type-node); straddle pairs biased in so
    # eager and rendezvous traffic share a (src, dst, tag) stream
    messages: list[dict] = []
    nmsg = draw(st.integers(min_value=1, max_value=4))
    for _ in range(nmsg):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = draw(
            st.integers(min_value=0, max_value=nranks - 2)
            .map(lambda v, s=src: v if v < s else v + 1)
        )
        tag = draw(st.integers(min_value=0, max_value=2))
        size = draw(st.sampled_from(MESSAGE_SIZES))
        node = draw(_type_node(size, depth=2))
        messages.append({"src": src, "dst": dst, "tag": tag, "node": node})
    if draw(st.booleans()):
        src = draw(st.integers(min_value=0, max_value=nranks - 1))
        dst = (src + 1) % nranks
        tag = draw(st.integers(min_value=0, max_value=2))
        for size in (_STRADDLE_SMALL, _STRADDLE_LARGE):
            messages.append({
                "src": src, "dst": dst, "tag": tag,
                "node": draw(_type_node(size, depth=1)),
            })

    start_barrier = draw(st.booleans())
    end_barrier = draw(st.booleans())

    # register type nodes in a shared table (dedup by JSON identity)
    types: dict[str, dict] = {}
    node_names: dict[str, str] = {}
    import json as _json

    def type_name(node: dict) -> str:
        key = _json.dumps(node, sort_keys=True)
        name = node_names.get(key)
        if name is None:
            name = f"t{len(types)}"
            node_names[key] = name
            types[name] = node
        return name

    for i, msg in enumerate(messages):
        msg["index"] = i
        msg["type"] = type_name(msg["node"])
        msg["span"] = _hi(msg["node"])

    ranks: list[tuple] = []
    for rank in range(nranks):
        outgoing = [m for m in messages if m["src"] == rank]
        incoming = [m for m in messages if m["dst"] == rank]
        ops: list[ir.Op] = []
        for m in outgoing:
            buf = f"s{m['index']}"
            ops.append(ir.Alloc(buf=buf, nbytes=m["span"]))
            ops.append(ir.Fill(
                buf=buf, offset=0, nbytes=m["span"],
                a=(m["index"] * 37 + 11) % 251, b=1, mod=251,
            ))
        for m in incoming:
            ops.append(ir.Alloc(buf=f"r{m['index']}", nbytes=m["span"]))
        if start_barrier:
            ops.append(ir.Barrier())
        # receive posts keep per-(src, tag) stream FIFO order; send posts
        # keep per-(dst, tag) order; the merge order is drawn, so sends
        # can race ahead of the matching posts (unexpected-queue path)
        recv_seq = _stream_shuffle(
            draw, incoming, lambda m: (m["src"], m["tag"])
        )
        send_seq = _stream_shuffle(
            draw, outgoing, lambda m: (m["dst"], m["tag"])
        )
        recv_ops = [
            ir.Irecv(
                req=f"rr{m['index']}", buf=f"r{m['index']}", offset=0,
                type=m["type"], count=1, source=m["src"], tag=m["tag"],
            )
            for m in recv_seq
        ]
        send_ops = [
            ir.Isend(
                req=f"sr{m['index']}", buf=f"s{m['index']}", offset=0,
                type=m["type"], count=1, dest=m["dst"], tag=m["tag"],
            )
            for m in send_seq
        ]
        merged: list[ir.Irecv | ir.Isend] = []
        ri = si = 0
        while ri < len(recv_ops) or si < len(send_ops):
            take_recv = ri < len(recv_ops) and (
                si >= len(send_ops) or draw(st.booleans())
            )
            if take_recv:
                merged.append(recv_ops[ri])
                ri += 1
            else:
                merged.append(send_ops[si])
                si += 1
        ops.extend(merged)
        req_names = [op.req for op in merged]
        if req_names:
            if draw(st.booleans()):
                ops.append(ir.Waitall(reqs=tuple(req_names)))
            else:
                for req in _stream_shuffle(draw, req_names, lambda _r: 0):
                    ops.append(ir.Wait(req=req))
        if end_barrier:
            ops.append(ir.Barrier())
        ranks.append(tuple(ops))

    return Workload(
        name="fuzz",
        nranks=nranks,
        ranks=tuple(ranks),
        types=types,
        scheme=scheme,
        eager_rdma=eager_rdma,
    )


# ----------------------------------------------------------------------
# static oracle
# ----------------------------------------------------------------------

def expected_payloads(workload: Workload) -> dict:
    """``{(rank, request/op key): wire bytes | None}`` per receive.

    Computed from the op declarations alone: abstract per-buffer memory
    is built from each op's ``effect``, sends pack through their type's
    flatten at the point of posting, and the k-th receive of a
    (src, dst, tag) stream expects the k-th send of that stream (MPI
    non-overtaking).  ``None`` marks a receive whose bytes cannot be
    known statically: its sender read a buffer holding one of the
    network's landing zones.
    """
    types = workload.built_types()
    streams_send: dict[tuple, list] = {}
    streams_recv: dict[tuple, list] = {}
    for rank, rank_ops in enumerate(workload.ranks):
        memory: dict[str, np.ndarray] = {}
        book = ir.Landings(workload.nranks)
        tainted: set[str] = set()
        for i, op in enumerate(rank_ops):
            op.effect(memory)
            peer = getattr(op, op.PEER) if op.PEER else None
            if op.PEER == "dest":  # a point-to-point send
                buf, offset, name, count = op.ACCESSES[0].of(op, book.nranks)
                payload = None if buf in tainted else b"".join(
                    memory[buf][offset + int(o): offset + int(o) + int(n)]
                    .tobytes()
                    for o, n in types[name].flatten(count).blocks()
                )
                streams_send.setdefault(
                    (rank, peer, getattr(op, "tag")), []
                ).append(payload)
            elif op.PEER == "source":  # a point-to-point receive
                streams_recv.setdefault(
                    (peer, rank, getattr(op, "tag")), []
                ).append((rank, op.landing_key(i)))
            # every zone the network writes — collective and window ones
            # too, though the oracle only pairs point-to-point streams
            landed = op.landings(i, book)
            tainted.update(zone.buf for _key, zone in landed)
            tainted.update(zone.buf for zone in book.posted.values())
            tainted.update(zone.buf for zone in book.windows.values())
    out: dict[tuple, Optional[bytes]] = {}
    for stream, recvs in streams_recv.items():
        sends = streams_send.get(stream, [])
        for (rank, key), payload in zip(recvs, sends):
            out[(rank, key)] = payload
    return out


def check_workload(
    workload: Workload,
    *,
    scheme: Optional[str] = None,
    eager_rdma: Optional[bool] = None,
) -> None:
    """Replay and assert every receive's payload against the oracle's, hashed."""
    expected = expected_payloads(workload)
    result = replay(
        workload, scheme=scheme, eager_rdma=eager_rdma,
        collect_payloads=True,
    )
    for (rank, key), payload in sorted(expected.items()):
        if payload is None:
            continue
        got, want = result.payloads[rank].get(key), sha256(payload).digest()
        assert got == want, (
            f"rank {rank} receive {key!r}: delivered payload differs from "
            f"the matched send ({len(payload)} bytes expected, sha256 "
            f"{got.hex()[:12] if got is not None else 'none'} vs "
            f"{want.hex()[:12]}) — matching order violated?"
        )


# ----------------------------------------------------------------------
# time-boxed fuzzing
# ----------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz_time_boxed` session."""

    chunks: int
    examples: int
    elapsed: float
    #: None when every example passed, else details of the (shrunk)
    #: counterexample: {"workload": json text, "error": str, "path": ...}
    failure: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def fuzz_time_boxed(
    seconds: float,
    *,
    seed: int = 0,
    artifact_dir: Optional[str] = None,
    chunk_examples: int = 25,
) -> FuzzReport:
    """Run seeded fuzz chunks until the deadline or a counterexample.

    Deterministic for a given ``seed``: chunk ``k`` runs Hypothesis with
    seed ``seed + k``, so CI reruns reproduce the exact exploration (the
    time box only decides how many chunks fit).  On failure the shrunk
    counterexample is serialized to ``artifact_dir`` (when given) and
    returned in the report.
    """
    deadline = time.monotonic() + seconds
    start = time.monotonic()
    chunk = 0
    examples = 0
    while time.monotonic() < deadline:
        state: dict = {}

        @hypothesis_seed(seed + chunk)
        @hypothesis_settings(
            max_examples=chunk_examples,
            database=None,
            deadline=None,
            derandomize=False,
            report_multiple_bugs=False,
            suppress_health_check=list(HealthCheck),
        )
        @given(workloads())
        def run_chunk(workload: Workload) -> None:
            state["workload"] = workload
            state["count"] = state.get("count", 0) + 1
            check_workload(workload)

        try:
            run_chunk()
        except Exception as exc:  # noqa: BLE001 - any failure is a find
            examples += state.get("count", 0)
            workload = state.get("workload")
            failure = {
                "error": f"{type(exc).__name__}: {exc}",
                "seed": seed + chunk,
                "workload": (
                    ir.to_json(workload) if workload is not None else None
                ),
                "path": None,
            }
            if workload is not None and artifact_dir is not None:
                out = Path(artifact_dir)
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"counterexample-seed{seed + chunk}.json"
                path.write_text(failure["workload"])
                failure["path"] = str(path)
            return FuzzReport(
                chunks=chunk + 1,
                examples=examples,
                elapsed=time.monotonic() - start,
                failure=failure,
            )
        examples += state.get("count", 0)
        chunk += 1
    return FuzzReport(
        chunks=chunk,
        examples=examples,
        elapsed=time.monotonic() - start,
        failure=None,
    )
