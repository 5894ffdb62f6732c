"""A datatype is charged by its type map, not by how it is spelled.

Hunold et al. ("MPI Derived Datatypes: Performance Expectations and
Status Quo", PAPERS.md) expect two spellings of one type map to perform
alike.  The model holds this exactly: time and events come from the
merged block list, never from the constructor tree (docs/ARCHITECTURE.md
§7).  A layout drawn from the nested constructor space of
``tests/datatypes/test_pack_oracle.py`` is respelled as ``hindexed`` over
``BYTE`` from its flattened blocks, resized to the same bounds; one send
of each spelling, at an eager and at a rendezvous size, must give the
same ``repr(time_us)``, event count and received bytes under every
scheme.
"""

import hashlib

import numpy as np
from hypothesis import given, settings

from repro import Cluster
from repro.datatypes import BYTE, hindexed, resized
from repro.ib.costmodel import MB, CostModel
from repro.schemes import SCHEME_NAMES
from tests.datatypes.test_pack_oracle import layouts


def respelled(dt):
    """``dt``'s type map as ``hindexed`` over ``BYTE``."""
    flat = dt.flatten()
    blocks = hindexed(flat.lengths.tolist(), flat.offsets.tolist(), BYTE)
    return resized(blocks, dt.lb, dt.extent)


def one_send(scheme, dt, count):
    """``[repr(time_us), events, sha256 of the receive buffer]`` of one
    send of ``(dt, count)`` from rank 0 to rank 1."""
    flat = dt.flatten(count)
    low = min(0, dt.lb, int(flat.offsets[0]))
    high = max(dt.lb + count * dt.extent, int(flat.offsets[-1] + flat.lengths[-1]))
    digest = hashlib.sha256()

    def rank0(mpi):
        base = mpi.alloc(high - low) - low
        rng = np.random.default_rng(count)
        stream = rng.integers(0, 255, flat.size, dtype=np.uint8)
        pos = 0
        for off, ln in flat.blocks():
            mpi.node.memory.view(base + off, ln)[:] = stream[pos : pos + ln]
            pos += ln
        yield from mpi.send(base, dt, count, dest=1, tag=0)

    def rank1(mpi):
        base = mpi.alloc(high - low) - low
        yield from mpi.recv(base, dt, count, source=0, tag=0)
        digest.update(mpi.node.memory.view(base + low, high - low).tobytes())

    cluster = Cluster(2, scheme=scheme, memory_per_rank=64 * MB)
    res = cluster.run([rank0, rank1])
    return [repr(res.time_us), cluster.sim.events_processed, digest.hexdigest()]


@settings(max_examples=6, deadline=None)
@given(layout=layouts())
def test_charged_by_type_map_not_spelling(layout):
    dt = layout[0]
    same = respelled(dt)
    assert same.flatten(2) == dt.flatten(2)
    threshold = CostModel.mellanox_2003().eager_threshold  # Cluster's default
    for count in (1, threshold // dt.size + 1):
        for scheme in SCHEME_NAMES:
            assert one_send(scheme, same, count) == one_send(scheme, dt, count), (
                scheme, count,
            )
