"""Interpreter: lower a workload IR program onto ``repro.mpi``.

:func:`replay` builds one rank program per IR rank, runs them on a
:class:`~repro.mpi.world.Cluster`, and returns a :class:`ReplayResult`
carrying the simulated run time plus a per-rank *digest timeline* — a
SHA-256 over every application buffer taken after each observation op
(wait/waitall/send/recv and every collective).  Two runs are
behaviourally identical iff their digest timelines and ``time_us``
match, which is exactly what the differential tests assert between a
recorded trace and the live program it was recorded from.

A rank program is one loop over its ops: ``yield from op.lower(ctx,
env)`` runs the op on the live ``RankContext`` (each op declares its own
lowering in :mod:`repro.workloads.ir`), then one generic step
(:func:`land`) takes the payload of every landing zone the op completed,
the SHA-256 of its landed wire bytes, and for an observation op the
digest.  A byte range is hashed once a step, so a window over a whole
buffer is one pass for its payload and its part of the digest.

Scheme, eager-RDMA flag, and cost model can be overridden per replay so
one checked-in workload file sweeps all seven schemes and every
cost-model preset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.mpi.world import Cluster
from repro.workloads.ir import Access, Landings, Op, Workload, Zone, fill_pattern
from repro.workloads.validate import validate

__all__ = ["ReplayResult", "RankEnv", "digest_buffers", "fill_pattern",
           "land", "replay"]


def _sha256(hashes: dict, buf: str, view, offset: int, size: int) -> bytes:
    """SHA-256 of ``view[offset:offset + size]`` of buffer ``buf``, in
    place, once per ``hashes``: one op's step, in which no byte changes."""
    key = (buf, offset, size)
    if key not in hashes:
        hashes[key] = hashlib.sha256(view[offset:offset + size]).digest()
    return hashes[key]


def digest_buffers(views, hashes: Optional[dict] = None) -> str:
    """SHA-256 over ``name``, a zero byte and ``sha256(buffer)`` for each
    of the named buffers ``[(name, uint8-array), ...]``, in allocation
    order.  Shared by the interpreter and the recorder so their
    timelines are comparable byte-for-byte.  Each buffer is hashed in
    place: ``memory.view`` slices are C-contiguous, and the buffer
    protocol raises ``ValueError`` for one that is not rather than copy."""
    hashes = {} if hashes is None else hashes
    h = hashlib.sha256()
    for name, view in views:
        h.update(name.encode() + b"\x00")
        h.update(_sha256(hashes, name, view, 0, len(view)))
    return h.hexdigest()


@dataclass
class ReplayResult:
    """Outcome of one IR replay."""

    name: str
    scheme: str
    time_us: float
    #: per-rank list of (op_index, sha256-hex) at each observation op
    digests: list
    #: per-rank dict of payloads, each the 32-byte SHA-256 of a landing
    #: zone's wire bytes (recv requests by name, collective and fence
    #: zones by ``op<i>``); filled when ``collect_payloads=True``
    payloads: list = field(default_factory=list)
    values: list = field(default_factory=list)


class RankEnv:
    """One rank's live names during a replay, for the ops' lowerings:
    buffer bases and views (allocation order), datatypes, requests and
    windows."""

    def __init__(self, memory, types: dict):
        self.memory = memory
        self.types = types
        self.bases: dict[str, int] = {}
        self.views: dict[str, np.ndarray] = {}
        self.requests: dict[str, Any] = {}
        self.windows: dict[str, Any] = {}

    def alloc(self, buf: str, addr: int, nbytes: int) -> None:
        self.bases[buf] = addr
        self.views[buf] = self.memory.view(addr, nbytes)

    def addr(self, buf: str, offset: int) -> int:
        return self.bases[buf] + offset

    def live(self, op: Op, access: Access) -> tuple:
        """A typed access as ``RankContext`` takes it: (address, datatype,
        count)."""
        buf, offset, name, count = access.of(op, 1)
        return self.addr(buf, offset), self.types[name], count

    def landed(self, zone: Zone, hashes: dict) -> bytes:
        """SHA-256 of a landing zone's wire bytes: gathered through its
        datatype, or the window's raw range hashed in place."""
        if zone.type is None:
            view = self.views[zone.buf]
            return _sha256(hashes, zone.buf, view, zone.offset, zone.count)
        flat = self.types[zone.type].flatten(zone.count)
        out = np.empty(flat.size, dtype=np.uint8)
        self.memory.copy_blocks(
            self.addr(zone.buf, zone.offset) + flat.offsets, flat.lengths,
            out, gather=True,
        )
        return hashlib.sha256(out.data).digest()


def land(env: RankEnv, op: Op, i: int, book: Landings,
         payloads: Optional[dict], digests: list) -> list:
    """The step after op ``i``'s lowering: each landed zone's payload (into
    ``payloads`` unless None), an observation's digest; returns the landings."""
    hashes: dict = {}
    zones = op.landings(i, book)
    if payloads is not None:
        for key, zone in zones:
            payloads[key] = env.landed(zone, hashes)
    if op.OBSERVES:
        digests.append((i, digest_buffers(env.views.items(), hashes)))
    return zones


def _program(ctx, ops, nranks: int, types: dict, digests: list,
             payloads: Optional[dict]):
    env = RankEnv(ctx.node.memory, types)
    book = Landings(nranks)
    for i, op in enumerate(ops):
        yield from op.lower(ctx, env)
        land(env, op, i, book, payloads, digests)
    return len(ops)


def replay(
    workload: Workload,
    *,
    scheme: Optional[str] = None,
    eager_rdma: Optional[bool] = None,
    cost_model: Optional[Any] = None,
    collect_payloads: bool = False,
    check: bool = True,
) -> ReplayResult:
    """Run a workload and return its digest timeline + simulated time.

    ``scheme``/``eager_rdma``/``cost_model`` override the workload's own
    run parameters (sweeps replay one file under many configurations).
    ``check=False`` skips semantic validation for already-trusted inputs.
    """
    if check:
        validate(workload)
    use_scheme = scheme if scheme is not None else workload.scheme
    use_eager = (
        eager_rdma if eager_rdma is not None else workload.eager_rdma
    )
    types = workload.built_types()
    digests: list = [[] for _ in range(workload.nranks)]
    payloads: list = [{} for _ in range(workload.nranks)]
    cluster = Cluster(
        nranks=workload.nranks,
        scheme=use_scheme,
        eager_rdma=use_eager,
        cost_model=cost_model,
    )
    programs = [
        partial(_program, ops=ops, nranks=workload.nranks, types=types,
                digests=digests[rank],
                payloads=payloads[rank] if collect_payloads else None)
        for rank, ops in enumerate(workload.ranks)
    ]
    result = cluster.run(programs)
    return ReplayResult(
        name=workload.name,
        scheme=use_scheme,
        time_us=result.time_us,
        digests=digests,
        payloads=payloads,
        values=result.values,
    )
