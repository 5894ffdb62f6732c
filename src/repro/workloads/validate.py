"""Semantic validation of workload IR programs.

:func:`parse` already guarantees *structure* (known ops, right fields).
This module checks the *semantics* a program needs to actually run:
buffers allocated before use and large enough for every typed access,
requests defined before they are waited on and completed exactly once,
peer ranks in range, and collective call sites symmetric across ranks
(same op sequence, matching byte counts, aligned window epochs).

Every failure raises :class:`WorkloadError` with a ``rank R op I``
location so fuzzer counterexamples and hand-written corpus files point
at the offending line.
"""

from __future__ import annotations

from typing import Optional

from repro.datatypes.base import Datatype
from repro.schemes import SCHEME_NAMES
from repro.workloads import ir
from repro.workloads.ir import Workload, WorkloadError

__all__ = ["validate"]

#: ops that participate in cross-rank collective symmetry, in program order
_COLLECTIVE_OPS = ("barrier", "alltoall", "bcast", "allgather", "win_create",
                   "fence")


def _span(dt: Datatype, count: int) -> tuple[int, int]:
    """(lowest, highest+1) byte touched by ``count`` elements, relative
    to the buffer origin.  Empty access -> (0, 0)."""
    flat = dt.flatten(count)
    if not flat.nblocks:
        return (0, 0)
    return (int(flat.offsets[0]), int(flat.offsets[-1] + flat.lengths[-1]))


def _check_access(
    buffers: dict,
    buf: str,
    offset: int,
    dt: Datatype,
    count: int,
    where: str,
) -> None:
    if buf not in buffers:
        raise WorkloadError(f"{where}: buffer {buf!r} used before alloc")
    if count < 0:
        raise WorkloadError(f"{where}: negative count {count}")
    lo, hi = _span(dt, count)
    if offset + lo < 0 or offset + hi > buffers[buf]:
        raise WorkloadError(
            f"{where}: access [{offset + lo}, {offset + hi}) outside "
            f"buffer {buf!r} of {buffers[buf]} bytes"
        )


def _check_region(
    buffers: dict, buf: str, offset: int, nbytes: int, where: str
) -> None:
    if buf not in buffers:
        raise WorkloadError(f"{where}: buffer {buf!r} used before alloc")
    if offset < 0 or nbytes < 0 or offset + nbytes > buffers[buf]:
        raise WorkloadError(
            f"{where}: region [{offset}, {offset + nbytes}) outside "
            f"buffer {buf!r} of {buffers[buf]} bytes"
        )


def _resolve_type(types: dict, name: str, where: str) -> Datatype:
    if name not in types:
        raise WorkloadError(f"{where}: unknown type {name!r}")
    return types[name]


def _check_peer(peer: int, rank: int, nranks: int, where: str, role: str) -> None:
    if not isinstance(peer, int) or not 0 <= peer < nranks:
        raise WorkloadError(
            f"{where}: {role} {peer!r} out of range for {nranks} ranks"
        )
    if peer == rank:
        raise WorkloadError(f"{where}: {role} is self (rank {rank})")


def validate(workload: Workload) -> None:
    """Raise :class:`WorkloadError` unless ``workload`` is runnable."""
    if workload.scheme not in SCHEME_NAMES:
        raise WorkloadError(
            f"unknown scheme {workload.scheme!r}; choose from "
            f"{', '.join(SCHEME_NAMES)}"
        )
    if workload.nranks < 1:
        raise WorkloadError("nranks must be >= 1")
    types = workload.built_types()  # raises with types[NAME] location

    # per-rank local checks + collective event extraction
    collective_events: list[list[tuple]] = []
    for rank, rank_ops in enumerate(workload.ranks):
        events: list[tuple] = []
        buffers: dict[str, int] = {}
        pending: set[str] = set()
        done: set[str] = set()
        windows: dict[str, tuple[int, str, int]] = {}  # name -> (ordinal, buf, size)
        win_ordinal = 0
        for i, op in enumerate(rank_ops):
            where = f"rank {rank} op {i} ({op.OP})"
            if isinstance(op, ir.Alloc):
                if op.buf in buffers:
                    raise WorkloadError(
                        f"{where}: buffer {op.buf!r} allocated twice"
                    )
                if op.nbytes <= 0:
                    raise WorkloadError(
                        f"{where}: alloc size must be positive"
                    )
                buffers[op.buf] = op.nbytes
            elif isinstance(op, ir.Fill):
                _check_region(buffers, op.buf, op.offset, op.nbytes, where)
                if not 1 <= op.mod <= 256:
                    raise WorkloadError(
                        f"{where}: fill mod {op.mod} outside [1, 256]"
                    )
            elif isinstance(op, ir.Data):
                raw = op.decoded(where)
                _check_region(buffers, op.buf, op.offset, len(raw), where)
            elif isinstance(op, (ir.Isend, ir.Send)):
                dt = _resolve_type(types, op.type, where)
                _check_access(buffers, op.buf, op.offset, dt, op.count, where)
                _check_peer(op.dest, rank, workload.nranks, where, "dest")
                if op.tag < 0:
                    raise WorkloadError(f"{where}: negative tag {op.tag}")
                if isinstance(op, ir.Isend):
                    if op.req in pending or op.req in done:
                        raise WorkloadError(
                            f"{where}: request {op.req!r} reused"
                        )
                    pending.add(op.req)
            elif isinstance(op, (ir.Irecv, ir.Recv)):
                dt = _resolve_type(types, op.type, where)
                _check_access(buffers, op.buf, op.offset, dt, op.count, where)
                _check_peer(op.source, rank, workload.nranks, where, "source")
                if op.tag < 0:
                    raise WorkloadError(f"{where}: negative tag {op.tag}")
                if isinstance(op, ir.Irecv):
                    if op.req in pending or op.req in done:
                        raise WorkloadError(
                            f"{where}: request {op.req!r} reused"
                        )
                    pending.add(op.req)
            elif isinstance(op, ir.Wait):
                if op.req not in pending:
                    raise WorkloadError(
                        f"{where}: wait on "
                        f"{'completed' if op.req in done else 'undefined'} "
                        f"request {op.req!r}"
                    )
                pending.discard(op.req)
                done.add(op.req)
            elif isinstance(op, ir.Waitall):
                if len(set(op.reqs)) != len(op.reqs):
                    raise WorkloadError(f"{where}: duplicate request names")
                for req in op.reqs:
                    if req not in pending:
                        raise WorkloadError(
                            f"{where}: waitall on "
                            f"{'completed' if req in done else 'undefined'} "
                            f"request {req!r}"
                        )
                    pending.discard(req)
                    done.add(req)
            elif isinstance(op, ir.Barrier):
                events.append((i, "barrier"))
            elif isinstance(op, ir.Alltoall):
                sdt = _resolve_type(types, op.sendtype, where)
                rdt = _resolve_type(types, op.recvtype, where)
                n = workload.nranks
                _check_access(
                    buffers, op.sendbuf, op.sendoffset, sdt,
                    op.sendcount * n, where,
                )
                _check_access(
                    buffers, op.recvbuf, op.recvoffset, rdt,
                    op.recvcount * n, where,
                )
                sbytes = sdt.size * op.sendcount
                rbytes = rdt.size * op.recvcount
                if sbytes != rbytes:
                    raise WorkloadError(
                        f"{where}: send chunk {sbytes}B != recv chunk "
                        f"{rbytes}B"
                    )
                events.append((i, "alltoall", sbytes))
            elif isinstance(op, ir.Bcast):
                dt = _resolve_type(types, op.type, where)
                _check_access(buffers, op.buf, op.offset, dt, op.count, where)
                if not 0 <= op.root < workload.nranks:
                    raise WorkloadError(
                        f"{where}: root {op.root} out of range"
                    )
                events.append((i, "bcast", op.root, dt.size * op.count))
            elif isinstance(op, ir.Allgather):
                sdt = _resolve_type(types, op.sendtype, where)
                rdt = _resolve_type(types, op.recvtype, where)
                n = workload.nranks
                _check_access(
                    buffers, op.sendbuf, op.sendoffset, sdt,
                    op.sendcount, where,
                )
                _check_access(
                    buffers, op.recvbuf, op.recvoffset, rdt,
                    op.recvcount * n, where,
                )
                sbytes = sdt.size * op.sendcount
                rbytes = rdt.size * op.recvcount
                if sbytes != rbytes:
                    raise WorkloadError(
                        f"{where}: send chunk {sbytes}B != recv chunk "
                        f"{rbytes}B"
                    )
                events.append((i, "allgather", sbytes))
            elif isinstance(op, ir.WinCreate):
                if op.win in windows:
                    raise WorkloadError(
                        f"{where}: window {op.win!r} created twice"
                    )
                _check_region(buffers, op.buf, op.offset, op.size, where)
                windows[op.win] = (win_ordinal, op.buf, op.size)
                win_ordinal += 1
                events.append((i, "win_create"))
            elif isinstance(op, ir.Put):
                if op.win not in windows:
                    raise WorkloadError(
                        f"{where}: put on unknown window {op.win!r}"
                    )
                dt = _resolve_type(types, op.type, where)
                _check_access(buffers, op.buf, op.offset, dt, op.count, where)
                _check_peer(op.target, rank, workload.nranks, where, "target")
                tdt = (
                    _resolve_type(types, op.target_type, where)
                    if op.target_type is not None
                    else dt
                )
                tcount = (
                    op.target_count if op.target_count is not None else op.count
                )
                if tdt.size * tcount != dt.size * op.count:
                    raise WorkloadError(
                        f"{where}: origin {dt.size * op.count}B != target "
                        f"{tdt.size * tcount}B"
                    )
                events.append(
                    (i, "put", op.win, op.target, op.target_disp, tdt, tcount)
                )
            elif isinstance(op, ir.Fence):
                if op.win not in windows:
                    raise WorkloadError(
                        f"{where}: fence on unknown window {op.win!r}"
                    )
                events.append((i, "fence", windows[op.win][0]))
            else:  # pragma: no cover - decode already rejects unknown ops
                raise WorkloadError(f"{where}: unsupported op")
        if pending:
            raise WorkloadError(
                f"rank {rank}: request(s) {sorted(pending)} never completed"
            )
        # resolve put target spans now that this rank's windows are known
        collective_events.append([(rank, buffers, windows, events)])

    # cross-rank symmetry over the collective event sequences
    flat = [entry[0] for entry in collective_events]
    if workload.nranks > 1:
        _check_symmetry(workload, flat)


def _check_symmetry(workload: Workload, per_rank: list) -> None:
    """Collective calls must line up ordinal-by-ordinal across ranks."""
    sequences = []
    for rank, _buffers, _windows, events in per_rank:
        sequences.append(
            [e for e in events if e[1] != "put"]  # puts are one-sided
        )
    length = len(sequences[0])
    for rank, seq in enumerate(sequences[1:], start=1):
        if len(seq) != length:
            raise WorkloadError(
                f"rank {rank} has {len(seq)} collective calls but rank 0 "
                f"has {length}"
            )
    for ordinal in range(length):
        ref = sequences[0][ordinal]
        for rank in range(1, workload.nranks):
            got = sequences[rank][ordinal]
            if got[1:] != ref[1:]:
                raise WorkloadError(
                    f"rank {rank} op {got[0]}: collective #{ordinal} is "
                    f"{got[1]}{got[2:]} but rank 0 op {ref[0]} is "
                    f"{ref[1]}{ref[2:]}"
                )
    # every put must land inside the target rank's same-ordinal window
    windows_by_ordinal: list[dict[int, tuple[str, int]]] = []
    for _rank, _buffers, windows, _events in per_rank:
        windows_by_ordinal.append(
            {ordv[0]: (name, ordv[2]) for name, ordv in windows.items()}
        )
    for rank, _buffers, windows, events in per_rank:
        for event in events:
            if event[1] != "put":
                continue
            i, _tag, win, target, target_disp, tdt, tcount = event
            ordinal = windows[win][0]
            twin = windows_by_ordinal[target].get(ordinal)
            where = f"rank {rank} op {i} (put)"
            if twin is None:
                raise WorkloadError(
                    f"{where}: target rank {target} has no window "
                    f"#{ordinal}"
                )
            lo, hi = _span(tdt, tcount)
            if target_disp + lo < 0 or target_disp + hi > twin[1]:
                raise WorkloadError(
                    f"{where}: target span [{target_disp + lo}, "
                    f"{target_disp + hi}) outside window {twin[0]!r} of "
                    f"{twin[1]} bytes on rank {target}"
                )


def validate_text(text: str) -> Workload:
    """Parse + validate in one step (the CLI's entry point)."""
    workload = ir.parse(text)
    validate(workload)
    return workload


def is_valid(workload: Workload) -> Optional[str]:
    """None when valid, else the error message (for test assertions)."""
    try:
        validate(workload)
    except WorkloadError as exc:
        return str(exc)
    return None
