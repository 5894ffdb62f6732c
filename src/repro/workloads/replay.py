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

The simulation is single-threaded; the call's :func:`worker_pool`
threads inflate large ``data`` payloads (prefetched before ``validate``)
and hash each range of at least :data:`HASH_OFFLOAD_BYTES`, copied at its
step into a recycled private array that no later write reaches.
:func:`resolve` puts the same bytes an inline hash gives in place.

Scheme, eager-RDMA flag, and cost model can be overridden per replay so
one checked-in workload file sweeps all seven schemes and every
cost-model preset.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.mpi.world import Cluster
from repro.workloads.ir import (Access, Data, Landings, Op, Workload, Zone,
                                fill_pattern)
from repro.workloads.validate import validate

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = ["ReplayResult", "RankEnv", "digest_buffers", "fill_pattern",
           "land", "replay"]

#: a range this large is hashed on the call's workers (``hashlib`` drops
#: the GIL): the eight 8.9 MB windows of a halo pass take 30–38 ms on two
#: threads against 57–60 ms in series, plus 1.2–1.7 ms a copy into a
#: recycled array; ``particle_exchange``'s small ranges stay in place.
HASH_OFFLOAD_BYTES = 1 << 20

#: snapshots whose hash has ended, newest last, so that a warm pass
#: does not first-touch fresh pages for them
SPARE_SNAPSHOTS = 8
_snapshots: deque = deque(maxlen=SPARE_SNAPSHOTS)
_snapshots_lock = threading.Lock()


def _snapshot(size: int) -> np.ndarray:
    """A private array of ``size`` bytes: the newest spare, else fresh."""
    with _snapshots_lock:
        for i in reversed(range(len(_snapshots))):
            if len(_snapshots[i]) == size:
                snap = _snapshots[i]
                del _snapshots[i]
                return snap
    return np.empty(size, np.uint8)


def _hash_snapshot(snap: np.ndarray) -> bytes:
    """A worker's job: the snapshot's SHA-256, then the array is spare."""
    digest = hashlib.sha256(snap).digest()
    with _snapshots_lock:
        _snapshots.append(snap)
    return digest


def worker_pool() -> Executor:
    """One ``replay()`` or ``record()`` call's threads: each starts at a job
    (the idle pool costs ≈ 8 µs), all end with the ``with`` block."""
    # imported here: ≈ 7 ms that a process which never replays skips
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(min(2, os.cpu_count() or 1))


def _sha256(src: np.ndarray, workers: Optional[Executor], private=False):
    """SHA-256 of a C-contiguous range; when it is large and ``workers``
    is set, a job over a copy taken now (none if ``src`` is private)."""
    if workers is None or len(src) < HASH_OFFLOAD_BYTES:
        return hashlib.sha256(src).digest()
    if not private:
        snap = _snapshot(len(src))
        snap[:] = src
        src = snap
    return workers.submit(_hash_snapshot, src)


def _done(value):
    """A value, or a pending one's: a job's result, or a digest's over its
    parts (a list)."""
    if isinstance(value, list):
        h = hashlib.sha256()
        for name, inner in value:
            h.update(name.encode() + b"\x00" + _done(inner))
        return h.hexdigest()
    return value if isinstance(value, (bytes, str)) else value.result()


def resolve(digests, payloads) -> None:
    """Put each pending value of per-rank digests and payloads in place."""
    for timeline in digests:
        timeline[:] = [(i, _done(digest)) for i, digest in timeline]
    for found in payloads:
        found.update({key: _done(payload) for key, payload in found.items()})


def _cached(hashes: dict, buf: str, view, offset: int, size: int,
            workers: Optional[Executor] = None):
    """:func:`_sha256` of ``view[offset:offset + size]`` of buffer ``buf``,
    once per ``hashes``: one op's step, in which no byte changes."""
    key = (buf, offset, size)
    if key not in hashes:
        hashes[key] = _sha256(view[offset:offset + size], workers)
    return hashes[key]


def digest_buffers(views, hashes: Optional[dict] = None,
                   workers: Optional[Executor] = None):
    """SHA-256 over ``name``, a zero byte and ``sha256(buffer)`` for each
    of the named buffers ``[(name, uint8-array), ...]``, in allocation
    order.  Shared by the interpreter and the recorder so their
    timelines are comparable byte-for-byte.  Each buffer is hashed in
    place: ``memory.view`` slices are C-contiguous, and the buffer
    protocol raises ``ValueError`` for one that is not rather than copy.
    With ``workers``: its ``(name, hash)`` parts, for :func:`resolve`."""
    hashes = {} if hashes is None else hashes
    parts = [(name, _cached(hashes, name, view, 0, len(view), workers))
             for name, view in views]
    return parts if workers is not None else _done(parts)


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

    def __init__(self, memory, types: dict, workers: Optional[Executor] = None):
        self.memory = memory
        self.types = types
        self.workers = workers
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

    def landed(self, zone: Zone, hashes: dict):
        """:func:`_sha256` of a landing zone's wire bytes: gathered through
        its datatype into a private array, or the window's raw range."""
        if zone.type is None:
            view = self.views[zone.buf]
            return _cached(hashes, zone.buf, view, zone.offset, zone.count,
                           self.workers)
        flat = self.types[zone.type].flatten(zone.count)
        out = _snapshot(flat.size)
        self.memory.copy_blocks(
            self.addr(zone.buf, zone.offset) + flat.offsets, flat.lengths,
            out, gather=True,
        )
        return _sha256(out, self.workers, private=True)


def land(env: RankEnv, op: Op, i: int, book: Landings,
         payloads: Optional[dict], digests: list) -> list:
    """The step after op ``i``'s lowering: each landed zone's payload (into
    ``payloads`` unless None), an observation's digest; returns the landings.
    Both stay pending (a digest as its parts) until :func:`resolve`."""
    hashes: dict = {}
    zones = op.landings(i, book)
    if payloads is not None:
        for key, zone in zones:
            payloads[key] = env.landed(zone, hashes)
    if op.OBSERVES:
        digests.append((i, digest_buffers(env.views.items(), hashes,
                                          env.workers)))
    return zones


def _program(ctx, ops, nranks: int, types: dict, digests: list,
             payloads: Optional[dict], workers: Executor):
    env = RankEnv(ctx.node.memory, types, workers)
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
    with worker_pool() as pool:
        for op in chain.from_iterable(workload.ranks):
            if isinstance(op, Data):
                op.prefetch(pool)
        types = validate(workload) if check else workload.built_types()
        use_scheme = scheme if scheme is not None else workload.scheme
        use_eager = eager_rdma if eager_rdma is not None else workload.eager_rdma
        digests: list = [[] for _ in range(workload.nranks)]
        payloads: list = [{} for _ in range(workload.nranks)]
        cluster = Cluster(nranks=workload.nranks, scheme=use_scheme,
                          eager_rdma=use_eager, cost_model=cost_model)
        programs = [
            partial(_program, ops=ops, nranks=workload.nranks, types=types,
                    digests=digests[rank],
                    payloads=payloads[rank] if collect_payloads else None,
                    workers=pool)
            for rank, ops in enumerate(workload.ranks)
        ]
        result = cluster.run(programs)
        resolve(digests, payloads)
    return ReplayResult(
        name=workload.name,
        scheme=use_scheme,
        time_us=result.time_us,
        digests=digests,
        payloads=payloads,
        values=result.values,
    )
