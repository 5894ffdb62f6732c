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
lowering in :mod:`repro.workloads.ir`), then one generic step packs the
bytes of every landing zone the op completed and, for an observation
op, appends the digest.

Scheme, eager-RDMA flag, and cost model can be overridden per replay so
one checked-in workload file sweeps all seven schemes and every
cost-model preset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.mpi.world import Cluster
from repro.workloads.ir import (
    Access,
    Landings,
    Op,
    Workload,
    Zone,
    fill_pattern,
)
from repro.workloads.validate import validate

__all__ = ["ReplayResult", "RankEnv", "digest_buffers", "fill_pattern",
           "landed_bytes", "replay"]


def digest_buffers(views) -> str:
    """SHA-256 over named buffers: ``[(name, uint8-array), ...]`` in
    allocation order.  Shared by the interpreter and the recorder so
    their timelines are comparable byte-for-byte.  The hash reads each
    view in place: ``memory.view`` slices are C-contiguous, and the buffer
    protocol raises ``ValueError`` for one that is not rather than copy."""
    h = hashlib.sha256()
    for name, view in views:
        h.update(name.encode())
        h.update(b"\x00")
        h.update(view)
    return h.hexdigest()


@dataclass
class ReplayResult:
    """Outcome of one IR replay."""

    name: str
    scheme: str
    time_us: float
    #: per-rank list of (op_index, sha256-hex) at each observation op
    digests: list
    #: per-rank dict of payload bytes (recv requests by name, collective
    #: and fence landing zones by ``op<i>``); filled when
    #: ``collect_payloads=True``
    payloads: list = field(default_factory=list)
    values: list = field(default_factory=list)


def landed_bytes(memory, base: int, zone: Zone, types: dict) -> bytes:
    """The bytes of a landing zone whose buffer starts at ``base``: the
    packed wire bytes through its datatype, or raw for a window."""
    if zone.type is None:
        return memory.view(base + zone.offset, zone.count).tobytes()
    flat = types[zone.type].flatten(zone.count)
    out = np.empty(flat.size, dtype=np.uint8)
    memory.copy_blocks(
        base + zone.offset + flat.offsets, flat.lengths, out, gather=True
    )
    return out.tobytes()


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


def _make_program(
    workload: Workload,
    rank: int,
    types: dict,
    digests: list,
    payloads: list,
    collect_payloads: bool,
):
    ops = workload.ranks[rank]
    my_digests: list = digests[rank]
    my_payloads: dict = payloads[rank]

    def program(ctx):
        env = RankEnv(ctx.node.memory, types)
        book = Landings(workload.nranks)
        for i, op in enumerate(ops):
            yield from op.lower(ctx, env)
            for key, zone in op.landings(i, book):
                if collect_payloads:
                    my_payloads[key] = landed_bytes(
                        env.memory, env.bases[zone.buf], zone, types
                    )
            if op.OBSERVES:
                my_digests.append((i, digest_buffers(env.views.items())))
        return len(ops)

    return program


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
        _make_program(
            workload, rank, types, digests, payloads, collect_payloads
        )
        for rank in range(workload.nranks)
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
