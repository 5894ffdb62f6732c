"""The workload IR: typed communication programs as data.

A :class:`Workload` is a complete n-rank communication program — the
declarative analogue of the generator programs handed to
:meth:`repro.mpi.world.Cluster.run`.  Each rank owns a straight-line
sequence of :class:`Op` records (no control flow: loops are unrolled at
construction or recording time), all datatypes live in a shared
name-keyed type table, and buffers/requests/windows are referenced by
name.  In the spirit of the xdsl MPI-dialect RFC, the ops are *typed*
and *valid by construction where possible*; everything else is caught by
:func:`repro.workloads.validate.validate` with rank/op-indexed errors.

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
from typing import Any, ClassVar, Optional

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

__all__ = [
    "FORMAT",
    "VERSION",
    "OPS",
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
    "Op",
    "Put",
    "Recv",
    "Send",
    "Wait",
    "Waitall",
    "WinCreate",
    "Workload",
    "WorkloadError",
    "build_type",
    "encode_data",
    "encode_type",
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
    missing = [k for k in keys if k not in node]
    if missing:
        raise WorkloadError(f"{where}: missing field(s) {missing} in type node")
    extra = sorted(set(node) - set(keys) - {"type"})
    if extra:
        raise WorkloadError(f"{where}: unknown field(s) {extra} in type node")
    return [node[k] for k in keys]


def build_type(node: Any, where: str = "type") -> Datatype:
    """Materialize a type node into a live :class:`Datatype`.

    Raises :class:`WorkloadError` naming ``where`` on any malformed
    node, so callers can report "rank 2 op 5: ..." style locations.
    """
    if not isinstance(node, dict):
        raise WorkloadError(f"{where}: type node must be an object, got "
                            f"{type(node).__name__}")
    kind = node.get("type")
    try:
        if kind == "primitive":
            (name,) = _require(node, ("name",), where)
            if name not in PRIMITIVES:
                raise WorkloadError(
                    f"{where}: unknown primitive {name!r}; choose from "
                    f"{', '.join(sorted(PRIMITIVES))}"
                )
            return PRIMITIVES[name]
        if kind == "contiguous":
            count, base = _require(node, ("count", "base"), where)
            return contiguous(count, build_type(base, where))
        if kind == "vector":
            count, blocklength, stride, base = _require(
                node, ("count", "blocklength", "stride", "base"), where
            )
            return vector(count, blocklength, stride, build_type(base, where))
        if kind == "hvector":
            count, blocklength, stride_bytes, base = _require(
                node, ("count", "blocklength", "stride_bytes", "base"), where
            )
            return hvector(
                count, blocklength, stride_bytes, build_type(base, where)
            )
        if kind == "indexed":
            blocklengths, displacements, base = _require(
                node, ("blocklengths", "displacements", "base"), where
            )
            return indexed(blocklengths, displacements, build_type(base, where))
        if kind == "hindexed":
            blocklengths, displacements_bytes, base = _require(
                node, ("blocklengths", "displacements_bytes", "base"), where
            )
            return hindexed(
                blocklengths, displacements_bytes, build_type(base, where)
            )
        if kind == "indexed_block":
            blocklength, displacements, base = _require(
                node, ("blocklength", "displacements", "base"), where
            )
            return indexed_block(
                blocklength, displacements, build_type(base, where)
            )
        if kind == "struct":
            blocklengths, displacements_bytes, bases = _require(
                node, ("blocklengths", "displacements_bytes", "bases"), where
            )
            return struct(
                blocklengths,
                displacements_bytes,
                [build_type(b, where) for b in bases],
            )
        if kind == "resized":
            base, lb, extent = _require(node, ("base", "lb", "extent"), where)
            return resized(build_type(base, where), lb, extent)
        if kind == "subarray":
            sizes, subsizes, starts, base, order = _require(
                node, ("sizes", "subsizes", "starts", "base", "order"), where
            )
            return subarray(
                sizes, subsizes, starts, build_type(base, where), order
            )
        if kind == "derived":
            dkind, parts, lb, ub = _require(
                node, ("kind", "parts", "lb", "ub"), where
            )
            built = []
            for part in parts:
                if not isinstance(part, (list, tuple)) or len(part) != 3:
                    raise WorkloadError(
                        f"{where}: derived part must be [disp, base, count]"
                    )
                disp, base, count = part
                built.append((disp, build_type(base, where), count))
            return Derived(dkind, built, lb=lb, ub=ub)
    except WorkloadError:
        raise
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"{where}: bad {kind!r} type node: {exc}") from exc
    raise WorkloadError(
        f"{where}: unknown type constructor {kind!r}; known: primitive, "
        "contiguous, vector, hvector, indexed, hindexed, indexed_block, "
        "struct, resized, subarray, derived"
    )


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
# data payload helpers
# ----------------------------------------------------------------------

def encode_data(raw: bytes) -> str:
    """Literal bytes -> the ``data`` op's zlib+base64 wire form."""
    return base64.b64encode(zlib.compress(raw, 6)).decode("ascii")


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """Base class: one straight-line step of a rank program."""

    OP: ClassVar[str] = ""

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"op": self.OP}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class Alloc(Op):
    OP: ClassVar[str] = "alloc"
    buf: str
    nbytes: int
    align: int = 64


@dataclass(frozen=True)
class Fill(Op):
    """Byte ``offset + j`` of the region becomes ``(a + b*j) % mod``."""

    OP: ClassVar[str] = "fill"
    buf: str
    offset: int
    nbytes: int
    a: int
    b: int
    mod: int = 251


@dataclass(frozen=True)
class Data(Op):
    """Literal application bytes at ``offset`` (recorder-captured)."""

    OP: ClassVar[str] = "data"
    buf: str
    offset: int
    zlib64: str

    def decoded(self, where: str = "data") -> bytes:
        """The payload bytes, inflated once per parsed op: memoised beside
        the dataclass fields (``to_dict``, ``==`` and ``hash`` never see
        them) for ``validate``, ``replay`` and the fuzz oracle to share."""
        if "_raw" not in self.__dict__:
            try:
                raw = zlib.decompress(base64.b64decode(self.zlib64.encode("ascii")))
            except Exception as exc:
                message = f"{where}: undecodable data payload: {exc}"
                raise WorkloadError(message) from exc
            self.__dict__["_raw"] = raw
        return self.__dict__["_raw"]


@dataclass(frozen=True)
class Isend(Op):
    OP: ClassVar[str] = "isend"
    req: str
    buf: str
    offset: int
    type: str
    count: int
    dest: int
    tag: int


@dataclass(frozen=True)
class Irecv(Op):
    OP: ClassVar[str] = "irecv"
    req: str
    buf: str
    offset: int
    type: str
    count: int
    source: int
    tag: int


@dataclass(frozen=True)
class Send(Op):
    OP: ClassVar[str] = "send"
    buf: str
    offset: int
    type: str
    count: int
    dest: int
    tag: int


@dataclass(frozen=True)
class Recv(Op):
    OP: ClassVar[str] = "recv"
    buf: str
    offset: int
    type: str
    count: int
    source: int
    tag: int


@dataclass(frozen=True)
class Wait(Op):
    OP: ClassVar[str] = "wait"
    req: str


@dataclass(frozen=True)
class Waitall(Op):
    OP: ClassVar[str] = "waitall"
    reqs: tuple


@dataclass(frozen=True)
class Barrier(Op):
    OP: ClassVar[str] = "barrier"


@dataclass(frozen=True)
class Alltoall(Op):
    OP: ClassVar[str] = "alltoall"
    sendbuf: str
    sendoffset: int
    sendtype: str
    sendcount: int
    recvbuf: str
    recvoffset: int
    recvtype: str
    recvcount: int


@dataclass(frozen=True)
class Bcast(Op):
    OP: ClassVar[str] = "bcast"
    buf: str
    offset: int
    type: str
    count: int
    root: int


@dataclass(frozen=True)
class Allgather(Op):
    OP: ClassVar[str] = "allgather"
    sendbuf: str
    sendoffset: int
    sendtype: str
    sendcount: int
    recvbuf: str
    recvoffset: int
    recvtype: str
    recvcount: int


@dataclass(frozen=True)
class WinCreate(Op):
    OP: ClassVar[str] = "win_create"
    win: str
    buf: str
    offset: int
    size: int


@dataclass(frozen=True)
class Put(Op):
    OP: ClassVar[str] = "put"
    win: str
    target: int
    buf: str
    offset: int
    type: str
    count: int
    target_disp: int
    target_type: Optional[str] = None
    target_count: Optional[int] = None


@dataclass(frozen=True)
class Fence(Op):
    OP: ClassVar[str] = "fence"
    win: str


#: op name -> dataclass, the decode dispatch table
OPS: dict[str, type[Op]] = {
    cls.OP: cls
    for cls in (
        Alloc, Fill, Data, Isend, Irecv, Send, Recv, Wait, Waitall,
        Barrier, Alltoall, Bcast, Allgather, WinCreate, Put, Fence,
    )
}

#: ops whose completion is an observation point (digest + payload capture)
OBSERVE_OPS = frozenset(
    ("wait", "waitall", "send", "recv", "barrier", "alltoall", "bcast",
     "allgather", "fence")
)


def _decode_op(entry: Any, where: str) -> Op:
    if not isinstance(entry, dict):
        raise WorkloadError(f"{where}: op must be an object, got "
                            f"{type(entry).__name__}")
    name = entry.get("op")
    cls = OPS.get(name)
    if cls is None:
        raise WorkloadError(
            f"{where}: unknown op {name!r}; known ops: "
            f"{', '.join(sorted(OPS))}"
        )
    spec = {f.name: f for f in dataclass_fields(cls)}
    extra = sorted(set(entry) - set(spec) - {"op"})
    if extra:
        raise WorkloadError(
            f"{where}: unknown field(s) {extra} for op {name!r}"
        )
    kwargs: dict[str, Any] = {}
    for fname in spec:
        if fname in entry:
            value = entry[fname]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[fname] = value
    missing = [
        f.name
        for f in dataclass_fields(cls)
        if f.name not in kwargs and _field_required(f)
    ]
    if missing:
        raise WorkloadError(
            f"{where}: missing field(s) {missing} for op {name!r}"
        )
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise WorkloadError(f"{where}: bad op {name!r}: {exc}") from exc


def _field_required(f: Any) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


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

    Structural validation only (shapes, known ops/fields); semantic
    validation (buffer bounds, request liveness, collective symmetry) is
    :func:`repro.workloads.validate.validate`.
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
