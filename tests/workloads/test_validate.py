"""The validator's semantic rules, one row per rejection.

Each row mutates one field (or adds or drops one op) of a known-good
program — ``eager_rndv_overtake.json``, a library trace, or the overtake
program with one collective appended on every rank — and names the
location and message ``parse`` + ``validate`` must raise: field types
are parse's, everything else validate's.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.workloads import WorkloadError, parse, validate
from repro.workloads.library import library_dir

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


@lru_cache(maxsize=None)
def _text(path: Path) -> str:
    return path.read_text()


def _with_collective(op: dict) -> dict:
    """The overtake program plus buffers ``c`` and ``d`` (8192 B) and one
    collective ``op`` on every rank: rank 0's at op 9, rank 1's at op 7."""
    doc = _base("overtake")
    for rank_ops in doc["ranks"]:
        rank_ops += [
            {"op": "alloc", "buf": "c", "nbytes": 8192, "align": 64},
            {"op": "alloc", "buf": "d", "nbytes": 8192, "align": 64},
            dict(op),
        ]
    return doc


_BCAST = {"op": "bcast", "buf": "c", "offset": 0, "type": "small",
          "count": 1, "root": 0}
_ALLGATHER = {"op": "allgather", "sendbuf": "c", "sendoffset": 0,
              "sendtype": "small", "sendcount": 1, "recvbuf": "d",
              "recvoffset": 0, "recvtype": "small", "recvcount": 1}


def _base(name: str) -> dict:
    if name == "overtake":
        return json.loads(_text(CORPUS_DIR / "eager_rndv_overtake.json"))
    if name == "bcast":
        return _with_collective(_BCAST)
    if name == "allgather":
        return _with_collective(_ALLGATHER)
    if name == "barrier":
        return _with_collective({"op": "barrier"})
    return json.loads(_text(library_dir() / f"{name}.json"))


def setf(rank, i, field, value):
    def mutate(doc):
        doc["ranks"][rank][i][field] = value
    return mutate


def push(rank, op):
    def mutate(doc):
        doc["ranks"][rank].append(op)
    return mutate


def drop(rank, i):
    def mutate(doc):
        del doc["ranks"][rank][i]
    return mutate


BASES = ("overtake", "bcast", "allgather", "barrier",
         "matrix_transpose_alltoall", "one_sided_halo")

REJECTIONS = [
    # alloc
    ("overtake", setf(0, 1, "buf", "a"),
     "rank 0 op 1 (alloc): buffer 'a' allocated twice"),
    ("overtake", setf(0, 0, "nbytes", 0),
     "rank 0 op 0 (alloc): alloc size must be positive"),
    ("overtake", setf(1, 1, "nbytes", -5),
     "rank 1 op 1 (alloc): alloc size must be positive"),
    ("overtake", setf(0, 0, "align", 0),
     "rank 0 op 0 (alloc): alloc align 0 is not a positive power of two"),
    ("overtake", setf(0, 1, "align", 3),
     "rank 0 op 1 (alloc): alloc align 3 is not a positive power of two"),
    ("overtake", setf(1, 0, "align", -8),
     "rank 1 op 0 (alloc): alloc align -8 is not a positive power of two"),
    # field types, checked by parse against the op's annotations
    ("overtake", setf(0, 0, "nbytes", "64"),
     "rank 0 op 0: field 'nbytes' of op 'alloc' must be an integer, "
     'got "64"'),
    ("overtake", setf(0, 6, "reqs", "rs"),
     "rank 0 op 6: field 'reqs' of op 'waitall' must be a list of strings, "
     'got "rs"'),
    ("overtake", setf(1, 4, "reqs", ["r0", 1]),
     "rank 1 op 4: field 'reqs' of op 'waitall' must be a list of strings"),
    ("overtake", setf(0, 4, "tag", 1.5),
     "rank 0 op 4: field 'tag' of op 'isend' must be an integer, got 1.5"),
    ("overtake", setf(0, 4, "dest", True),
     "rank 0 op 4: field 'dest' of op 'isend' must be an integer, got true"),
    ("overtake", setf(1, 2, "buf", 3),
     "rank 1 op 2: field 'buf' of op 'irecv' must be a string, got 3"),
    ("one_sided_halo", setf(0, 4, "target_type", 5),
     "rank 0 op 4: field 'target_type' of op 'put' must be a string or "
     "null, got 5"),
    ("one_sided_halo", setf(0, 4, "target_count", "2"),
     "rank 0 op 4: field 'target_count' of op 'put' must be an integer or "
     'null, got "2"'),
    # buffers: before alloc, regions, typed accesses, counts
    ("overtake", setf(0, 2, "buf", "zz"),
     "rank 0 op 2 (fill): buffer 'zz' used before alloc"),
    ("overtake", setf(0, 4, "buf", "zz"),
     "rank 0 op 4 (isend): buffer 'zz' used before alloc"),
    ("overtake", setf(0, 2, "offset", 1),
     "rank 0 op 2 (fill): region [1, 4097) outside buffer 'a' of 4096 bytes"),
    ("overtake", setf(0, 3, "offset", -1),
     "rank 0 op 3 (fill): region [-1, 11999) outside buffer 'b' of 12000 bytes"),
    ("overtake", setf(0, 2, "nbytes", -1),
     "rank 0 op 2 (fill): region [0, -1) outside buffer 'a' of 4096 bytes"),
    ("overtake", setf(1, 2, "offset", 8),
     "rank 1 op 2 (irecv): access [8, 4104) outside buffer 'x' of 4096 bytes"),
    ("overtake", setf(0, 4, "count", 2),
     "rank 0 op 4 (isend): access [0, 8192) outside buffer 'a' of 4096 bytes"),
    ("overtake", setf(0, 4, "count", -1),
     "rank 0 op 4 (isend): negative count -1"),
    ("bcast", setf(0, 9, "count", 3),
     "rank 0 op 9 (bcast): access [0, 12288) outside buffer 'c' of 8192 bytes"),
    # fill
    ("overtake", setf(0, 2, "mod", 0),
     "rank 0 op 2 (fill): fill mod 0 outside [1, 256]"),
    ("overtake", setf(0, 3, "mod", 257),
     "rank 0 op 3 (fill): fill mod 257 outside [1, 256]"),
    # types
    ("overtake", setf(1, 3, "type", "ghost"),
     "rank 1 op 3 (irecv): unknown type 'ghost'"),
    ("one_sided_halo", setf(0, 4, "target_type", "ghost"),
     "rank 0 op 4 (put): unknown type 'ghost'"),
    # peers and tags
    ("overtake", setf(0, 4, "dest", 2),
     "rank 0 op 4 (isend): dest 2 out of range for 2 ranks"),
    ("overtake", setf(0, 4, "dest", -1),
     "rank 0 op 4 (isend): dest -1 out of range for 2 ranks"),
    ("overtake", setf(0, 5, "dest", 0),
     "rank 0 op 5 (isend): dest is self (rank 0)"),
    ("overtake", setf(1, 2, "source", 7),
     "rank 1 op 2 (irecv): source 7 out of range for 2 ranks"),
    ("overtake", setf(1, 3, "source", 1),
     "rank 1 op 3 (irecv): source is self (rank 1)"),
    ("one_sided_halo", setf(0, 4, "target", 4),
     "rank 0 op 4 (put): target 4 out of range for 4 ranks"),
    ("one_sided_halo", setf(0, 4, "target", 0),
     "rank 0 op 4 (put): target is self (rank 0)"),
    ("overtake", setf(0, 4, "tag", -1),
     "rank 0 op 4 (isend): negative tag -1"),
    ("overtake", setf(1, 2, "tag", -3),
     "rank 1 op 2 (irecv): negative tag -3"),
    # requests
    ("overtake", setf(0, 5, "req", "s0"),
     "rank 0 op 5 (isend): request 's0' reused"),
    ("overtake", setf(1, 3, "req", "r0"),
     "rank 1 op 3 (irecv): request 'r0' reused"),
    ("overtake", push(0, {"op": "wait", "req": "zz"}),
     "rank 0 op 7 (wait): wait on undefined request 'zz'"),
    ("overtake", push(0, {"op": "wait", "req": "s0"}),
     "rank 0 op 7 (wait): wait on completed request 's0'"),
    ("overtake", setf(0, 6, "reqs", ["s0", "zz"]),
     "rank 0 op 6 (waitall): waitall on undefined request 'zz'"),
    ("overtake", push(1, {"op": "waitall", "reqs": ["r1"]}),
     "rank 1 op 5 (waitall): waitall on completed request 'r1'"),
    ("overtake", setf(1, 4, "reqs", ["r0", "r0"]),
     "rank 1 op 4 (waitall): duplicate request names"),
    ("overtake", setf(0, 6, "reqs", ["s0"]),
     "rank 0: request(s) ['s1'] never completed"),
    # collectives
    ("matrix_transpose_alltoall", setf(2, 3, "sendcount", 0),
     "rank 2 op 3 (alltoall): send chunk 0B != recv chunk 32768B"),
    ("allgather", setf(0, 9, "sendcount", 0),
     "rank 0 op 9 (allgather): send chunk 0B != recv chunk 4096B"),
    ("bcast", setf(1, 7, "root", 2),
     "rank 1 op 7 (bcast): root 2 out of range"),
    ("bcast", setf(0, 9, "root", -1),
     "rank 0 op 9 (bcast): root -1 out of range"),
    # windows
    ("one_sided_halo", push(0, {"op": "win_create", "win": "w0", "buf": "b0",
                                "offset": 0, "size": 8}),
     "rank 0 op 15 (win_create): window 'w0' created twice"),
    ("one_sided_halo", setf(1, 2, "size", 8954913),
     "rank 1 op 2 (win_create): region [0, 8954913) outside buffer 'b0' of "
     "8954912 bytes"),
    ("one_sided_halo", setf(0, 4, "win", "w9"),
     "rank 0 op 4 (put): put on unknown window 'w9'"),
    ("one_sided_halo", setf(3, 3, "win", "w9"),
     "rank 3 op 3 (fence): fence on unknown window 'w9'"),
    ("one_sided_halo", setf(0, 7, "target_count", 2),
     "rank 0 op 7 (put): origin 8448B != target 16896B"),
    # across ranks
    ("barrier", drop(1, 7),
     "rank 1 has 0 collective calls but rank 0 has 1"),
    ("bcast", setf(1, 7, "root", 1),
     "rank 1 op 7: collective #0 is bcast(1, 4096) but rank 0 op 9 is "
     "bcast(0, 4096)"),
    ("allgather", setf(1, 7, "op", "alltoall"),
     "rank 1 op 7: collective #0 is alltoall(4096,) but rank 0 op 9 is "
     "allgather(4096,)"),
    # win_create is a collective, so every rank holds the same windows once
    # the call sequences match: a put target never lacks the origin's window
    ("one_sided_halo", drop(2, -1),
     "rank 2 has 3 collective calls but rank 0 has 4"),
    ("one_sided_halo", setf(0, 4, "target_disp", 8954912),
     "rank 0 op 4 (put): target span [8954912, 8963360) outside window 'w0' "
     "of 8954912 bytes on rank 2"),
]


@pytest.mark.parametrize("name", BASES)
def test_bases_are_valid(name):
    validate(parse(json.dumps(_base(name))))


@pytest.mark.parametrize(
    "base,mutate,message", REJECTIONS, ids=[m for _b, _f, m in REJECTIONS]
)
def test_validate_rejects_with_location(base, mutate, message):
    doc = _base(base)
    mutate(doc)
    with pytest.raises(WorkloadError) as err:
        validate(parse(json.dumps(doc)))
    assert message in str(err.value)
