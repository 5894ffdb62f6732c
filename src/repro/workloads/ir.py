"""The workload IR: typed communication programs as data.

A :class:`Workload` is a complete n-rank communication program — the
declarative analogue of the generator programs handed to
:meth:`repro.mpi.world.Cluster.run`.  Each rank owns a straight-line
sequence of :class:`Op` records (no control flow: loops are unrolled at
construction or recording time), all datatypes live in a shared
name-keyed type table, and buffers/requests/windows are referenced by
name.

In the spirit of the xdsl MPI-dialect RFC, every op is *declared once*:
its :class:`Op` subclass carries the typed fields :func:`parse` checks,
the roles of those fields (typed buffer accesses, the peer, request and
window names), its validation rule, its collective signature, its
lowering onto ``RankContext``, whether it is an observation point, and
the landing zones the network writes.  ``validate``, ``replay``,
``record`` and the fuzz oracle are loops over those declarations; adding
an op means adding one class to :data:`OPS`.

The JSON wire form round-trips byte-stably::

    text = to_json(workload)
    assert to_json(parse(text)) == text

Op vocabulary
-------------

===========  =========================================================
``alloc``    allocate a named buffer (setup-time, like ``mpi.alloc``)
``fill``     write an affine byte pattern ``(a + b*j) % mod`` into a
             buffer region (models application initialisation)
``data``     write literal bytes (zlib+base64) into a buffer region —
             emitted by the recorder for application writes it observed
``isend``/``irecv``  nonblocking point-to-point, binding a request name
``send``/``recv``    blocking point-to-point
``wait``/``waitall`` complete requests by name
``barrier``/``alltoall``/``bcast``/``allgather``  collectives
``win_create``/``put``/``fence``  one-sided (MPI-2 RMA) epoch ops
===========  =========================================================
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Generator,
    NamedTuple,
    Optional,
)

import numpy as np

from repro.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    SHORT,
    Datatype,
    Primitive,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatypes.constructors import Derived

if TYPE_CHECKING:
    from repro.workloads.replay import RankEnv
    from repro.workloads.validate import RankCheck

__all__ = [
    "FORMAT",
    "VERSION",
    "OPS",
    "Access",
    "Alloc",
    "Allgather",
    "Alltoall",
    "Barrier",
    "Bcast",
    "Data",
    "Fence",
    "Fill",
    "Irecv",
    "Isend",
    "Landings",
    "Op",
    "Put",
    "Recv",
    "Send",
    "Wait",
    "Waitall",
    "WinCreate",
    "Workload",
    "WorkloadError",
    "Zone",
    "build_type",
    "encode_data",
    "encode_type",
    "fill_pattern",
    "parse",
    "to_json",
]

#: wire-format identity and version of the JSON form
FORMAT = "repro-workload"
VERSION = 1

#: primitive types by IR name
PRIMITIVES: dict[str, Primitive] = {
    "byte": BYTE,
    "char": CHAR,
    "short": SHORT,
    "int": INT,
    "long": LONG,
    "float": FLOAT,
    "double": DOUBLE,
}

_PRIMITIVE_BY_SIGNATURE = {p.signature(): n for n, p in PRIMITIVES.items()}


class WorkloadError(ValueError):
    """A malformed workload; the message names the offending location."""


# ----------------------------------------------------------------------
# datatype nodes
# ----------------------------------------------------------------------

def _require(node: dict, keys: tuple, where: str) -> list:
    """Extract ``keys`` from a type node, rejecting extras/missing."""
    try:
        values = [node[k] for k in keys]
    except KeyError:
        missing = [k for k in keys if k not in node]
        raise WorkloadError(
            f"{where}: missing field(s) {missing} in type node"
        ) from None
    if len(node) != len(keys) + 1:  # every key and "type" are present
        extra = sorted(set(node) - set(keys) - {"type"})
        raise WorkloadError(f"{where}: unknown field(s) {extra} in type node")
    return values


def _primitive(name: Any, where: str) -> Primitive:
    if name not in PRIMITIVES:
        raise WorkloadError(
            f"{where}: unknown primitive {name!r}; choose from "
            f"{', '.join(sorted(PRIMITIVES))}"
        )
    return PRIMITIVES[name]


def _parts(parts: Any, where: str) -> list:
    built = []
    for part in parts:
        if not isinstance(part, (list, tuple)) or len(part) != 3:
            raise WorkloadError(
                f"{where}: derived part must be [disp, base, count]"
            )
        disp, base, count = part
        built.append((disp, build_type(base, where), count))
    return built


#: type-node kind -> (constructor, its fields in argument order)
_TYPE_NODES: dict[str, tuple[Callable[..., Datatype], tuple[str, ...]]] = {
    "primitive": (lambda dt: dt, ("name",)),
    "contiguous": (contiguous, ("count", "base")),
    "vector": (vector, ("count", "blocklength", "stride", "base")),
    "hvector": (hvector, ("count", "blocklength", "stride_bytes", "base")),
    "indexed": (indexed, ("blocklengths", "displacements", "base")),
    "hindexed": (hindexed, ("blocklengths", "displacements_bytes", "base")),
    "indexed_block": (
        indexed_block, ("blocklength", "displacements", "base")
    ),
    "struct": (struct, ("blocklengths", "displacements_bytes", "bases")),
    "resized": (resized, ("base", "lb", "extent")),
    "subarray": (subarray, ("sizes", "subsizes", "starts", "base", "order")),
    "derived": (
        lambda kind, parts, lb, ub: Derived(kind, parts, lb=lb, ub=ub),
        ("kind", "parts", "lb", "ub"),
    ),
}

#: the fields holding (or naming) nested nodes, and how each is built
_NESTED: dict[str, Callable[[Any, str], Any]] = {
    "name": _primitive,
    "base": lambda node, where: build_type(node, where),
    "bases": lambda nodes, where: [build_type(b, where) for b in nodes],
    "parts": _parts,
}

#: type-node kind -> (argument index, builder) of each nested field
_NESTED_AT = {
    kind: tuple((j, _NESTED[n]) for j, n in enumerate(names) if n in _NESTED)
    for kind, (_constructor, names) in _TYPE_NODES.items()
}


def build_type(node: Any, where: str = "type") -> Datatype:
    """Materialize a type node into a live :class:`Datatype`.

    Raises :class:`WorkloadError` naming ``where`` on any malformed
    node, so callers can report "rank 2 op 5: ..." style locations.
    """
    if not isinstance(node, dict):
        raise WorkloadError(f"{where}: type node must be an object, got "
                            f"{type(node).__name__}")
    kind = node.get("type")
    if not isinstance(kind, str) or kind not in _TYPE_NODES:
        raise WorkloadError(
            f"{where}: unknown type constructor {kind!r}; known: "
            f"{', '.join(_TYPE_NODES)}"
        )
    constructor, names = _TYPE_NODES[kind]
    try:
        args = _require(node, names, where)
        for j, build in _NESTED_AT[kind]:
            args[j] = build(args[j], where)
        return constructor(*args)
    except WorkloadError:
        raise
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"{where}: bad {kind!r} type node: {exc}") from exc


def encode_type(dt: Datatype) -> dict:
    """The exact IR node of a live datatype (the recorder's direction).

    Primitives encode by name; every :class:`Derived` — the normal form
    all constructors lower to — encodes as a generic ``derived`` node
    carrying its parts and bounds, so ``build_type(encode_type(dt))``
    has the same :meth:`~repro.datatypes.base.Datatype.signature`.
    """
    sig_name = _PRIMITIVE_BY_SIGNATURE.get(dt.signature()) if isinstance(
        dt, Primitive
    ) else None
    if sig_name is not None:
        return {"type": "primitive", "name": sig_name}
    if isinstance(dt, Derived):
        return {
            "type": "derived",
            "kind": dt.kind,
            "parts": [
                [d, encode_type(t), c] for d, t, c in dt.parts
            ],
            "lb": dt.lb,
            "ub": dt.ub,
        }
    raise WorkloadError(
        f"cannot encode datatype {dt!r} ({type(dt).__name__}) into the IR"
    )


# ----------------------------------------------------------------------
# bytes
# ----------------------------------------------------------------------

#: a ``data`` text this long is inflated on the replay's workers (``zlib``
#: drops the GIL): four halo grids (22 000 characters, 8.9 MB each) take
#: 54–59 ms on two threads against 52–75 ms in series, and overlap the
#: rest of the call; ``particle_exchange``'s 96 characters stay inline.
INFLATE_OFFLOAD_CHARS = 4096


def encode_data(raw: bytes) -> str:
    """Literal bytes -> the ``data`` op's zlib+base64 wire form."""
    return base64.b64encode(zlib.compress(raw, 6)).decode("ascii")


def _inflate(zlib64: str) -> bytes:
    return zlib.decompress(base64.b64decode(zlib64.encode("ascii")))


def span(dt: Datatype, count: int) -> tuple[int, int]:
    """(lowest, highest+1) byte touched by ``count`` elements of ``dt``,
    relative to their origin.  Empty access -> (0, 0)."""
    flat = dt.flatten(count)
    if not flat.nblocks:
        return (0, 0)
    return (int(flat.offsets[0]), int(flat.offsets[-1] + flat.lengths[-1]))


def fill_pattern(nbytes: int, a: int, b: int, mod: int) -> np.ndarray:
    """The ``fill`` op's byte pattern: byte ``j`` is ``(a + b*j) % mod``."""
    return (
        (a + b * np.arange(nbytes, dtype=np.int64)) % mod
    ).astype(np.uint8)


# ----------------------------------------------------------------------
# operand roles
# ----------------------------------------------------------------------

class Zone(NamedTuple):
    """A typed region of one rank's buffer ``buf``: ``count`` elements of
    the datatype named ``type`` at byte ``offset`` — or, with ``type``
    None, ``count`` raw bytes (a whole window)."""

    buf: str
    offset: int
    type: Optional[str]
    count: int


@dataclass(frozen=True)
class Access:
    """A typed buffer operand: the names of the op fields holding its
    buffer, byte offset, datatype and element count.  ``per_rank``
    multiplies the count by the number of ranks (an alltoall's two
    sides, an allgather's receive side)."""

    buf: str = "buf"
    offset: str = "offset"
    type: str = "type"
    count: str = "count"
    per_rank: bool = False

    def of(self, op: Op, nranks: int) -> Zone:
        """The region this operand of ``op`` touches."""
        count = getattr(op, self.count)
        return Zone(
            getattr(op, self.buf),
            getattr(op, self.offset),
            getattr(op, self.type),
            count * nranks if self.per_rank else count,
        )


_BUF = Access()
_SEND = Access("sendbuf", "sendoffset", "sendtype", "sendcount")
_SEND_ALL = Access("sendbuf", "sendoffset", "sendtype", "sendcount",
                   per_rank=True)
_RECV_ALL = Access("recvbuf", "recvoffset", "recvtype", "recvcount",
                   per_rank=True)


class Landings:
    """One rank's landing zones as its program runs: receives posted and
    not yet waited on, by request name, and windows, by window name."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.posted: dict[str, Zone] = {}
        self.windows: dict[str, Zone] = {}


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

#: what ``lower`` returns: a generator to ``yield from`` inside a rank
#: program, returning what the ``RankContext`` call returned
Lowering = Generator[Any, Any, Any]


@dataclass(frozen=True)
class Op:
    """Base class: one straight-line step of a rank program, declared once.

    A subclass's dataclass fields are the op's wire fields, their
    annotations the JSON types :func:`parse` accepts.  Its class
    attributes give the fields' roles, and its methods the op's rule
    (:meth:`check`), collective signature (:meth:`collective`), lowering
    (:meth:`lower`), memory effect (:meth:`effect`) and landing zones
    (:meth:`landings`).
    """

    OP: ClassVar[str] = ""
    #: typed buffer operands; ``LANDS`` is the one the network writes
    ACCESSES: ClassVar[tuple[Access, ...]] = ()
    LANDS: ClassVar[Optional[Access]] = None
    #: the field naming the peer rank (``dest``, ``source`` or ``target``)
    PEER: ClassVar[Optional[str]] = None
    #: the field binding a fresh request name
    REQUEST: ClassVar[Optional[str]] = None
    #: the field naming the request(s) this op completes
    WAITS: ClassVar[Optional[str]] = None
    #: the field naming an existing window
    WINDOW: ClassVar[Optional[str]] = None
    #: completion is an observation point (buffer digest)
    OBSERVES: ClassVar[bool] = False
    #: ``(name, accepts, expected, required)`` per field, from its
    #: annotation: set by the OPS table
    FIELDS: ClassVar[
        tuple[tuple[str, Callable[[Any], bool], str, bool], ...]
    ] = ()

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"op": self.OP}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def waited(self) -> tuple[str, ...]:
        """The request names this op completes, in order."""
        names = getattr(self, self.WAITS) if self.WAITS else ()
        return (names,) if isinstance(names, str) else names

    def check(self, state: RankCheck) -> None:
        """This op's own validation rule, past the generic role checks."""

    def collective(self, state: RankCheck) -> Optional[tuple]:
        """What must match the same-ordinal call on every other rank;
        None for an op that is not a collective."""
        return None

    def effect(self, memory: dict[str, np.ndarray]) -> None:
        """What this op writes into application memory (``{buffer name:
        uint8 array}``: the replay's buffers or the fuzz oracle's copy)."""

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        """Run this op on a live ``RankContext``, resolving its names in
        ``env`` (the replay's, or the recorder's forwarding the live
        program's call); by default an op is its memory effect."""
        self.effect(env.views)
        yield from ()

    def landing_key(self, i: int) -> str:
        """The payload key of this op's landing zone: its request name,
        or ``op<i>``."""
        return getattr(self, self.REQUEST) if self.REQUEST else f"op{i}"

    def landings(self, i: int, book: Landings) -> list[tuple[str, Zone]]:
        """``(payload key, zone)`` of each region the network has written
        once this op (the rank's ``i``-th) completes.  A posted receive's
        zone waits in ``book`` for the op that completes its request."""
        if self.LANDS is None:
            return [
                (req, book.posted.pop(req))
                for req in self.waited() if req in book.posted
            ]
        zone = self.LANDS.of(self, book.nranks)
        if self.REQUEST:
            book.posted[self.landing_key(i)] = zone
            return []
        return [(self.landing_key(i), zone)]


@dataclass(frozen=True)
class Alloc(Op):
    OP = "alloc"
    buf: str
    nbytes: int
    align: int = 64

    def check(self, state: RankCheck) -> None:
        if self.buf in state.buffers:
            state.fail(f"buffer {self.buf!r} allocated twice")
        if self.nbytes <= 0:
            state.fail("alloc size must be positive")
        if self.align < 1 or self.align & (self.align - 1):
            state.fail(
                f"alloc align {self.align} is not a positive power of two"
            )
        state.buffers[self.buf] = self.nbytes

    def effect(self, memory: dict[str, np.ndarray]) -> None:
        memory[self.buf] = np.zeros(self.nbytes, dtype=np.uint8)

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        env.alloc(self.buf, ctx.alloc(self.nbytes, self.align), self.nbytes)
        yield from ()


@dataclass(frozen=True)
class Fill(Op):
    """Byte ``offset + j`` of the region becomes ``(a + b*j) % mod``."""

    OP = "fill"
    buf: str
    offset: int
    nbytes: int
    a: int
    b: int
    mod: int = 251

    def check(self, state: RankCheck) -> None:
        state.region(self.buf, self.offset, self.nbytes)
        if not 1 <= self.mod <= 256:
            state.fail(f"fill mod {self.mod} outside [1, 256]")

    def effect(self, memory: dict[str, np.ndarray]) -> None:
        memory[self.buf][self.offset: self.offset + self.nbytes] = (
            fill_pattern(self.nbytes, self.a, self.b, self.mod)
        )


@dataclass(frozen=True)
class Data(Op):
    """Literal application bytes at ``offset`` (recorder-captured)."""

    OP = "data"
    buf: str
    offset: int
    zlib64: str

    def prefetch(self, workers: Any) -> None:
        """Start inflating a large payload on a replay's ``workers``."""
        if (len(self.zlib64) >= INFLATE_OFFLOAD_CHARS
                and not self.__dict__.keys() & {"_raw", "_job"}):
            self.__dict__["_job"] = workers.submit(_inflate, self.zlib64)

    def decoded(self, where: str = "data") -> bytes:
        """The payload bytes, inflated once per parsed op: memoised beside
        the dataclass fields (``to_dict``, ``==`` and ``hash`` never see
        them) for ``validate``, ``replay`` and the fuzz oracle to share.
        A prefetched op waits for its job."""
        if "_raw" not in self.__dict__:
            job = self.__dict__.pop("_job", None)
            try:
                raw = _inflate(self.zlib64) if job is None else job.result()
            except Exception as exc:
                message = f"{where}: undecodable data payload: {exc}"
                raise WorkloadError(message) from exc
            self.__dict__["_raw"] = raw
        return self.__dict__["_raw"]

    def check(self, state: RankCheck) -> None:
        state.region(self.buf, self.offset, len(self.decoded(state.where)))

    def effect(self, memory: dict[str, np.ndarray]) -> None:
        raw = self.decoded()
        memory[self.buf][self.offset: self.offset + len(raw)] = (
            np.frombuffer(raw, dtype=np.uint8)
        )


@dataclass(frozen=True)
class Isend(Op):
    OP = "isend"
    ACCESSES = (_BUF,)
    PEER = "dest"
    REQUEST = "req"
    req: str
    buf: str
    offset: int
    type: str
    count: int
    dest: int
    tag: int

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        req = yield from ctx.isend(*env.live(self, _BUF), self.dest, self.tag)
        env.requests[self.req] = req
        return req


@dataclass(frozen=True)
class Irecv(Op):
    OP = "irecv"
    ACCESSES = (_BUF,)
    LANDS = _BUF
    PEER = "source"
    REQUEST = "req"
    req: str
    buf: str
    offset: int
    type: str
    count: int
    source: int
    tag: int

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        req = yield from ctx.irecv(
            *env.live(self, _BUF), self.source, self.tag
        )
        env.requests[self.req] = req
        return req


@dataclass(frozen=True)
class Send(Op):
    OP = "send"
    ACCESSES = (_BUF,)
    PEER = "dest"
    OBSERVES = True
    buf: str
    offset: int
    type: str
    count: int
    dest: int
    tag: int

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.send(*env.live(self, _BUF), self.dest, self.tag)


@dataclass(frozen=True)
class Recv(Op):
    OP = "recv"
    ACCESSES = (_BUF,)
    LANDS = _BUF
    PEER = "source"
    OBSERVES = True
    buf: str
    offset: int
    type: str
    count: int
    source: int
    tag: int

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        return (yield from ctx.recv(
            *env.live(self, _BUF), self.source, self.tag
        ))


@dataclass(frozen=True)
class Wait(Op):
    OP = "wait"
    WAITS = "req"
    OBSERVES = True
    req: str

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.wait(env.requests[self.req])


@dataclass(frozen=True)
class Waitall(Op):
    OP = "waitall"
    WAITS = "reqs"
    OBSERVES = True
    reqs: tuple[str, ...]

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.waitall([env.requests[r] for r in self.reqs])


@dataclass(frozen=True)
class Barrier(Op):
    OP = "barrier"
    OBSERVES = True

    def collective(self, state: RankCheck) -> Optional[tuple]:
        return ()

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.barrier()


@dataclass(frozen=True)
class _Exchange(Op):
    """The fields and rule ``alltoall`` and ``allgather`` share: equal
    send and receive chunks, rank ``j``'s landing in receive slot ``j``."""

    LANDS = _RECV_ALL
    OBSERVES = True
    sendbuf: str
    sendoffset: int
    sendtype: str
    sendcount: int
    recvbuf: str
    recvoffset: int
    recvtype: str
    recvcount: int

    def check(self, state: RankCheck) -> None:
        sbytes = state.nbytes(self.sendtype, self.sendcount)
        rbytes = state.nbytes(self.recvtype, self.recvcount)
        if sbytes != rbytes:
            state.fail(f"send chunk {sbytes}B != recv chunk {rbytes}B")

    def collective(self, state: RankCheck) -> Optional[tuple]:
        return (state.nbytes(self.sendtype, self.sendcount),)

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        send, recv = self.ACCESSES
        # ctx.alltoall or ctx.allgather: the two take the same arguments
        yield from getattr(ctx, self.OP)(
            *env.live(self, send), *env.live(self, recv)
        )


@dataclass(frozen=True)
class Alltoall(_Exchange):
    OP = "alltoall"
    ACCESSES = (_SEND_ALL, _RECV_ALL)


@dataclass(frozen=True)
class Bcast(Op):
    OP = "bcast"
    ACCESSES = (_BUF,)
    LANDS = _BUF
    OBSERVES = True
    buf: str
    offset: int
    type: str
    count: int
    root: int

    def check(self, state: RankCheck) -> None:
        if not 0 <= self.root < state.nranks:
            state.fail(f"root {self.root} out of range")

    def collective(self, state: RankCheck) -> Optional[tuple]:
        return (self.root, state.nbytes(self.type, self.count))

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.bcast(*env.live(self, _BUF), self.root)


@dataclass(frozen=True)
class Allgather(_Exchange):
    OP = "allgather"
    ACCESSES = (_SEND, _RECV_ALL)


@dataclass(frozen=True)
class WinCreate(Op):
    """A window over ``size`` bytes at ``offset`` into ``buf``: the zone
    other ranks' puts write, landed at each fence."""

    OP = "win_create"
    win: str
    buf: str
    offset: int
    size: int

    def check(self, state: RankCheck) -> None:
        if self.win in state.windows:
            state.fail(f"window {self.win!r} created twice")
        state.region(self.buf, self.offset, self.size)
        state.windows[self.win] = self.size

    def collective(self, state: RankCheck) -> Optional[tuple]:
        return ()

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        win = yield from ctx.win_create(
            env.addr(self.buf, self.offset), self.size
        )
        env.windows[self.win] = win
        return win

    def landings(self, i: int, book: Landings) -> list[tuple[str, Zone]]:
        book.windows[self.win] = Zone(self.buf, self.offset, None, self.size)
        return []


@dataclass(frozen=True)
class Put(Op):
    """One-sided write into ``target``'s window, landed by its next fence.

    ``target_type`` / ``target_count`` default to the origin's."""

    OP = "put"
    ACCESSES = (_BUF,)
    PEER = "target"
    WINDOW = "win"
    win: str
    target: int
    buf: str
    offset: int
    type: str
    count: int
    target_disp: int
    target_type: Optional[str] = None
    target_count: Optional[int] = None

    def check(self, state: RankCheck) -> None:
        dt = state.type(self.type)
        tdt = dt if self.target_type is None else state.type(self.target_type)
        tcount = self.count if self.target_count is None else self.target_count
        if tdt.size * tcount != dt.size * self.count:
            state.fail(
                f"origin {dt.size * self.count}B != target "
                f"{tdt.size * tcount}B"
            )
        state.puts.append((
            state.where, state.window_ordinal(self.win), self.target,
            self.target_disp, tdt, tcount,
        ))

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        tdt = None if self.target_type is None else env.types[self.target_type]
        yield from ctx.put(
            env.windows[self.win], self.target, *env.live(self, _BUF),
            self.target_disp, tdt, self.target_count,
        )


@dataclass(frozen=True)
class Fence(Op):
    OP = "fence"
    WINDOW = "win"
    OBSERVES = True
    win: str

    def collective(self, state: RankCheck) -> Optional[tuple]:
        return (state.window_ordinal(self.win),)

    def lower(self, ctx: Any, env: RankEnv) -> Lowering:
        yield from ctx.win_fence(env.windows[self.win])

    def landings(self, i: int, book: Landings) -> list[tuple[str, Zone]]:
        return [(f"op{i}", book.windows[self.win])]


#: op name -> its declaration, the decode dispatch table
OPS: dict[str, type[Op]] = {
    cls.OP: cls
    for cls in (
        Alloc, Fill, Data, Isend, Irecv, Send, Recv, Wait, Waitall,
        Barrier, Alltoall, Bcast, Allgather, WinCreate, Put, Fence,
    )
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: field annotation -> (accepts a JSON value, what it must be)
_FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "int": (_is_int, "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[int]": (lambda v: v is None or _is_int(v), "an integer or null"),
    "Optional[str]": (
        lambda v: v is None or isinstance(v, str), "a string or null"
    ),
    "tuple[str, ...]": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
}

# an annotation outside the table fails here, at import, not at parse
for _cls in OPS.values():
    _cls.FIELDS = tuple(
        (f.name, *_FIELD_TYPES[str(f.type)], f.default is MISSING)
        for f in dataclass_fields(_cls)
    )


def _decode_op(entry: Any, where: str) -> Op:
    if not isinstance(entry, dict):
        raise WorkloadError(f"{where}: op must be an object, got "
                            f"{type(entry).__name__}")
    name = entry.get("op")
    cls = OPS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise WorkloadError(
            f"{where}: unknown op {name!r}; known ops: "
            f"{', '.join(sorted(OPS))}"
        )
    extra = sorted(set(entry) - {f[0] for f in cls.FIELDS} - {"op"})
    if extra:
        raise WorkloadError(
            f"{where}: unknown field(s) {extra} for op {name!r}"
        )
    missing = [f for f, _a, _e, required in cls.FIELDS
               if required and f not in entry]
    if missing:
        raise WorkloadError(
            f"{where}: missing field(s) {missing} for op {name!r}"
        )
    kwargs: dict[str, Any] = {}
    for fname, accepts, expected, _required in cls.FIELDS:
        if fname not in entry:
            continue
        value = entry[fname]
        if not accepts(value):
            raise WorkloadError(
                f"{where}: field {fname!r} of op {name!r} must be "
                f"{expected}, got {json.dumps(value)}"
            )
        kwargs[fname] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A complete n-rank communication program plus its run parameters."""

    name: str
    nranks: int
    ranks: tuple  # tuple[tuple[Op, ...], ...]
    types: dict  # name -> type node (plain JSON-able dicts)
    scheme: str = "bc-spup"
    eager_rdma: bool = False

    def built_types(self) -> dict:
        """``{name: Datatype}`` — fresh objects, built once per call."""
        return {
            name: build_type(node, where=f"types[{name}]")
            for name, node in self.types.items()
        }


def to_json(workload: Workload) -> str:
    """Canonical JSON wire form (byte-stable: sorted keys, 2-space
    indent, trailing newline)."""
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "name": workload.name,
        "nranks": workload.nranks,
        "cluster": {
            "scheme": workload.scheme,
            "eager_rdma": workload.eager_rdma,
        },
        "types": workload.types,
        "ranks": [
            [op.to_dict() for op in rank_ops] for rank_ops in workload.ranks
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse(text: str) -> Workload:
    """Parse the JSON wire form, with actionable structural errors.

    Structural validation only (shapes, known ops/fields, field types);
    semantic validation (buffer bounds, request liveness, collective
    symmetry) is :func:`repro.workloads.validate.validate`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise WorkloadError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WorkloadError("workload document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise WorkloadError(
            f"not a {FORMAT} document (format={doc.get('format')!r})"
        )
    if doc.get("version") != VERSION:
        raise WorkloadError(
            f"unsupported workload version {doc.get('version')!r} "
            f"(this build reads version {VERSION})"
        )
    known = {"format", "version", "name", "nranks", "cluster", "types", "ranks"}
    extra = sorted(set(doc) - known)
    if extra:
        raise WorkloadError(f"unknown top-level field(s) {extra}")
    name = doc.get("name")
    nranks = doc.get("nranks")
    if not isinstance(name, str) or not name:
        raise WorkloadError("'name' must be a non-empty string")
    if not isinstance(nranks, int) or nranks < 1:
        raise WorkloadError("'nranks' must be a positive integer")
    cluster = doc.get("cluster", {})
    if not isinstance(cluster, dict):
        raise WorkloadError("'cluster' must be an object")
    extra = sorted(set(cluster) - {"scheme", "eager_rdma"})
    if extra:
        raise WorkloadError(f"unknown cluster field(s) {extra}")
    scheme = cluster.get("scheme", "bc-spup")
    eager_rdma = bool(cluster.get("eager_rdma", False))
    types = doc.get("types", {})
    if not isinstance(types, dict):
        raise WorkloadError("'types' must be an object")
    ranks_doc = doc.get("ranks")
    if not isinstance(ranks_doc, list) or len(ranks_doc) != nranks:
        raise WorkloadError(
            f"'ranks' must be a list of {nranks} op lists "
            f"(got {len(ranks_doc) if isinstance(ranks_doc, list) else 'non-list'})"
        )
    ranks = []
    for r, rank_ops in enumerate(ranks_doc):
        if not isinstance(rank_ops, list):
            raise WorkloadError(f"rank {r}: op list must be a list")
        ops = tuple(
            _decode_op(entry, where=f"rank {r} op {i}")
            for i, entry in enumerate(rank_ops)
        )
        ranks.append(ops)
    return Workload(
        name=name,
        nranks=nranks,
        ranks=tuple(ranks),
        types=types,
        scheme=scheme,
        eager_rdma=eager_rdma,
    )
