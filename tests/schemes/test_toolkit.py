"""The scheme layer's one-home rules, pinned from outside.

* every CPU copy a scheme makes goes through ``pack_bytes`` /
  ``unpack_bytes`` — nothing under ``src/repro/schemes/`` reaches into
  ``memory.view`` (file-scanning style of ``tests/obs/test_no_wallclock``);
* an undersized receive fails one way — :class:`TruncationError` naming
  the receiving rank, both byte counts and the tag — under every scheme,
  eager and rendezvous, before any staging buffer is acquired.
"""

import pathlib
import re

import pytest

import repro
from repro import Cluster, types
from repro.ib.costmodel import MB
from repro.mpi.errors import TruncationError
from repro.schemes import SCHEME_NAMES

SCHEMES_SRC = pathlib.Path(repro.__file__).parent / "schemes"


def test_schemes_never_call_memory_view():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(SCHEMES_SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"memory\.view", line)
    ]
    assert not found, "byte-walking copy in repro.schemes:\n" + "\n".join(found)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize(
    "cols, protocol", [(8, "eager"), (128, "rendezvous")]
)
def test_undersized_receive_is_a_truncation_error(scheme, cols, protocol):
    sent = types.vector(128, cols, 4096, types.INT)
    posted = types.vector(128, cols // 2, 4096, types.INT)
    span = sent.flatten(1).span + 64

    def rank0(mpi):
        yield from mpi.send(mpi.alloc(span), sent, 1, dest=1, tag=5)

    def rank1(mpi):
        yield from mpi.recv(mpi.alloc(span), posted, 1, source=0, tag=5)

    cluster = Cluster(2, scheme=scheme, memory_per_rank=64 * MB)
    assert (sent.size > cluster.cm.eager_threshold) == (protocol == "rendezvous")
    with pytest.raises(TruncationError) as err:
        cluster.run([rank0, rank1])
    assert str(err.value) == (
        f"rank 1: {sent.size}-byte message overruns {posted.size}-byte "
        "receive buffer (tag 5)"
    )
    # raised before any scheme code ran on the receiving rank: no scheme
    # instance, no rendezvous slot, no pool buffer, no registration
    receiver = cluster.contexts[1]
    assert receiver._schemes == {}
    assert receiver._rndv_recv_slots.in_use == 0
    assert "unpack_pool" not in vars(receiver)
    assert receiver.reg_cache.misses == 0


def test_undersized_self_receive_is_the_same_error():
    sent = types.contiguous(64, types.INT)
    posted = types.contiguous(32, types.INT)

    def program(mpi):
        req = yield from mpi.irecv(mpi.alloc(256), posted, 1, source=0, tag=9)
        yield from mpi.send(mpi.alloc(256), sent, 1, dest=0, tag=9)
        yield from mpi.wait(req)

    with pytest.raises(TruncationError) as err:
        Cluster(1, memory_per_rank=64 * MB).run(program)
    assert str(err.value) == (
        "rank 0: 256-byte message overruns 128-byte receive buffer (tag 9)"
    )
