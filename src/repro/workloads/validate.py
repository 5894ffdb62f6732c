"""Semantic validation of workload IR programs.

:func:`parse` already guarantees *structure* (known ops, right fields of
the right JSON types).  This module checks the *semantics* a program
needs to actually run, as one loop over the op declarations of
:mod:`repro.workloads.ir`: :class:`RankCheck` applies the generic rule
of each field role (typed accesses inside allocated buffers, peers in
range and not self, tags non-negative, requests bound once and completed
once, windows known), then the op's own :meth:`~repro.workloads.ir.Op.check`,
and collects its :meth:`~repro.workloads.ir.Op.collective` signature;
:func:`_check_symmetry` lines the signatures up across ranks and checks
every put against its target's window.

Every failure raises :class:`WorkloadError` with a ``rank R op I``
location so fuzzer counterexamples and hand-written corpus files point
at the offending line.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from repro.datatypes.base import Datatype
from repro.schemes import SCHEME_NAMES
from repro.workloads import ir
from repro.workloads.ir import Workload, WorkloadError, Zone, span

__all__ = ["validate"]


class RankCheck:
    """One rank's validator state, advanced op by op: the buffers
    allocated, requests pending and done, windows created (in ordinal
    order), the collective calls made and the puts still to be checked
    against their targets' windows."""

    def __init__(self, rank: int, nranks: int, types: dict):
        self.rank = rank
        self.nranks = nranks
        self.types = types
        self.where = f"rank {rank}"
        self.buffers: dict[str, int] = {}
        self.pending: set[str] = set()
        self.done: set[str] = set()
        self.windows: dict[str, int] = {}  # name -> size
        #: (op index, op name, *signature) per collective call
        self.collectives: list[tuple] = []
        #: (where, window ordinal, target, target_disp, datatype, count)
        self.puts: list[tuple] = []

    def fail(self, message: str) -> NoReturn:
        raise WorkloadError(f"{self.where}: {message}")

    def type(self, name: Optional[str]) -> Datatype:
        if name not in self.types:
            self.fail(f"unknown type {name!r}")
        return self.types[name]

    def nbytes(self, name: str, count: int) -> int:
        return self.types[name].size * count

    def window_ordinal(self, name: str) -> int:
        return list(self.windows).index(name)

    def region(self, buf: str, offset: int, nbytes: int) -> None:
        if buf not in self.buffers:
            self.fail(f"buffer {buf!r} used before alloc")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.buffers[buf]:
            self.fail(
                f"region [{offset}, {offset + nbytes}) outside "
                f"buffer {buf!r} of {self.buffers[buf]} bytes"
            )

    def access(self, zone: Zone) -> None:
        buf, offset, name, count = zone
        dt = self.type(name)
        if buf not in self.buffers:
            self.fail(f"buffer {buf!r} used before alloc")
        if count < 0:
            self.fail(f"negative count {count}")
        lo, hi = span(dt, count)
        if offset + lo < 0 or offset + hi > self.buffers[buf]:
            self.fail(
                f"access [{offset + lo}, {offset + hi}) outside "
                f"buffer {buf!r} of {self.buffers[buf]} bytes"
            )

    def step(self, i: int, op: ir.Op) -> None:
        """Check op ``i``: its roles' rules, then its own."""
        self.where = f"rank {self.rank} op {i} ({op.OP})"
        for access in op.ACCESSES:
            self.access(access.of(op, self.nranks))
        if op.PEER:
            peer = getattr(op, op.PEER)
            if not 0 <= peer < self.nranks:
                self.fail(
                    f"{op.PEER} {peer!r} out of range for {self.nranks} ranks"
                )
            if peer == self.rank:
                self.fail(f"{op.PEER} is self (rank {self.rank})")
        if getattr(op, "tag", 0) < 0:
            self.fail(f"negative tag {getattr(op, 'tag')}")
        if op.REQUEST:
            req = getattr(op, op.REQUEST)
            if req in self.pending or req in self.done:
                self.fail(f"request {req!r} reused")
            self.pending.add(req)
        waited = op.waited()
        if len(set(waited)) != len(waited):
            self.fail("duplicate request names")
        for req in waited:
            if req not in self.pending:
                status = "completed" if req in self.done else "undefined"
                self.fail(f"{op.OP} on {status} request {req!r}")
            self.pending.discard(req)
            self.done.add(req)
        if op.WINDOW and getattr(op, op.WINDOW) not in self.windows:
            self.fail(
                f"{op.OP} on unknown window {getattr(op, op.WINDOW)!r}"
            )
        op.check(self)
        signature = op.collective(self)
        if signature is not None:
            self.collectives.append((i, op.OP, *signature))


def validate(workload: Workload) -> dict:
    """Raise :class:`WorkloadError` unless ``workload`` is runnable;
    return the ``{name: Datatype}`` it built (``replay`` runs on them)."""
    if workload.scheme not in SCHEME_NAMES:
        raise WorkloadError(
            f"unknown scheme {workload.scheme!r}; choose from "
            f"{', '.join(SCHEME_NAMES)}"
        )
    if workload.nranks < 1:
        raise WorkloadError("nranks must be >= 1")
    types = workload.built_types()  # raises with types[NAME] location
    states = []
    for rank, rank_ops in enumerate(workload.ranks):
        state = RankCheck(rank, workload.nranks, types)
        for i, op in enumerate(rank_ops):
            state.step(i, op)
        if state.pending:
            raise WorkloadError(
                f"rank {rank}: request(s) {sorted(state.pending)} never "
                "completed"
            )
        states.append(state)
    if workload.nranks > 1:
        _check_symmetry(states)
    return types


def _check_symmetry(states: list[RankCheck]) -> None:
    """Collective calls must line up ordinal-by-ordinal across ranks, and
    every put must land inside its target's same-ordinal window (which
    exists: ``win_create`` is one of the collective calls)."""
    reference = states[0].collectives
    for state in states[1:]:
        if len(state.collectives) != len(reference):
            raise WorkloadError(
                f"rank {state.rank} has {len(state.collectives)} collective "
                f"calls but rank 0 has {len(reference)}"
            )
    for ordinal, ref in enumerate(reference):
        for state in states[1:]:
            got = state.collectives[ordinal]
            if got[1:] != ref[1:]:
                raise WorkloadError(
                    f"rank {state.rank} op {got[0]}: collective #{ordinal} "
                    f"is {got[1]}{got[2:]} but rank 0 op {ref[0]} is "
                    f"{ref[1]}{ref[2:]}"
                )
    for state in states:
        for where, ordinal, target, target_disp, tdt, tcount in state.puts:
            name, size = list(states[target].windows.items())[ordinal]
            lo, hi = span(tdt, tcount)
            if target_disp + lo < 0 or target_disp + hi > size:
                raise WorkloadError(
                    f"{where}: target span [{target_disp + lo}, "
                    f"{target_disp + hi}) outside window {name!r} of "
                    f"{size} bytes on rank {target}"
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
