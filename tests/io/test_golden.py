"""The I/O client against its pin.

``golden/strategies.json`` holds, for write / read x ``pack`` / ``rdma``
x plain / file view x 1 and 2 servers (plus one two-client cell), the
simulated time when the program ends as ``repr(float)``, the SHA-256 of
the file's logical bytes and, for reads, of the destination buffer.  It
was measured before the ``rdma`` strategy moved onto the toolkit in
``repro.schemes.base``, so equality here proves the move changed neither
a microsecond nor a byte.  Regenerate only for an intended cost-model or
protocol change::

    PYTHONPATH=src python -m tests.io.test_golden \\
        > tests/io/golden/strategies.json
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import types
from repro.io import StorageCluster

GOLDEN = Path(__file__).parent / "golden" / "strategies.json"

#: 512 blocks of 64 bytes: with 8 KB stripes every stripe chunk holds 128
#: blocks, two gather lists of MAX_SGE entries
MEM_DT = types.vector(512, 16, 48, types.INT)
#: 128-byte file blocks 384 bytes apart: two memory blocks a file block
FILE_DT = types.resized(types.contiguous(128, types.BYTE), 0, 384)
STRIPE = 8 * 1024

CELLS = [
    dict(op=op, strategy=strategy, view=view, nservers=nservers, nclients=1)
    for op, strategy, view, nservers in itertools.product(
        ("write", "read"), ("pack", "rdma"), (False, True), (1, 2)
    )
] + [dict(op="read", strategy="rdma", view=False, nservers=2, nclients=2)]


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_cell(op, strategy, view, nservers, nclients) -> dict:
    cluster = StorageCluster(nclients, nservers=nservers, stripe_size=STRIPE)
    span = MEM_DT.flatten(1).span
    file_size = MEM_DT.size * (3 if view else 1)
    buffers = []
    for client in cluster.clients:
        memory = client.node.memory
        src, dst = memory.alloc(span + 64), memory.alloc(span + 64)
        memory.view(src, span)[:] = np.random.default_rng(
            client.client_id
        ).integers(0, 255, span, dtype=np.uint8)
        buffers.append((src, dst))

    def program(io):
        src, dst = buffers[io.client_id - 1]
        name = f"f{io.client_id}"
        fh = yield from io.open(name, file_size)
        kwargs = dict(strategy=strategy)
        if view:
            kwargs["file_dt"] = FILE_DT
        write, read = (
            (io.write_view, io.read_view) if view else (io.write, io.read)
        )
        yield from write(fh, 0, src, MEM_DT, **kwargs)
        if op == "read":
            yield from read(fh, 0, dst, MEM_DT, **kwargs)
        return io.sim.now

    ends = cluster.run(program)
    out = {
        "time_us": [repr(t) for t in ends],
        "file_sha256": [
            _sha(cluster.file_bytes(f"f{c.client_id}", file_size))
            for c in cluster.clients
        ],
    }
    if op == "read":
        out["read_sha256"] = [
            _sha(client.node.memory.view(dst, span))
            for client, (_src, dst) in zip(cluster.clients, buffers)
        ]
    return out


def _ident(cell) -> str:
    return "-".join(f"{key}={value}" for key, value in cell.items())


def test_golden_covers_every_cell():
    pinned = json.loads(GOLDEN.read_text())
    assert [entry["cell"] for entry in pinned] == CELLS


@pytest.mark.parametrize("cell", CELLS, ids=_ident)
def test_cell_reproduces_exactly(cell):
    (pinned,) = [
        entry for entry in json.loads(GOLDEN.read_text()) if entry["cell"] == cell
    ]
    assert run_cell(**cell) == pinned["result"]


if __name__ == "__main__":
    entries = [{"cell": cell, "result": run_cell(**cell)} for cell in CELLS]
    print("[\n" + ",\n".join(" " + json.dumps(e) for e in entries) + "\n]")
