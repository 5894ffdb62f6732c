"""Recycled address spaces: a program's buffer reads zero, and no result
reads a library buffer's byte before the library wrote it.

A dead :class:`NodeMemory`'s backing array goes to a bounded free list,
and the next space of its capacity takes it instead of first-touching
fresh pages.  ``alloc`` (a program's buffer) zeroes whatever earlier
owners may have written inside the range it returns; ``alloc_undefined``
(eager slots, send slots, RDMA-eager rings, staging pools, pack and bounce
buffers) zeroes nothing.

The poison tests patch ``alloc_undefined`` here, in the test only, to fill
every library buffer with a byte nobody writes (0xA5, then 0x5A).  A
library path that read such a buffer before writing it would move a time,
an event count, a payload or a digest; every result must instead equal
what the zero fill gives (a fresh space's bytes, which the goldens pin).
"""

import gc
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import Cluster
from repro.ib.costmodel import MB, CostModel
from repro.ib.memory import NodeMemory
from repro.io import StorageCluster
from repro.schemes import SCHEME_NAMES
from repro.workloads.fuzz import workloads
from repro.workloads.replay import replay
from tests import test_hostbench_exact as hostbench_exact
from tests.datatypes.test_pack_oracle import layouts
from tests.io import test_golden as io_golden
from tests.schemes import test_rendezvous_golden as rendezvous
from tests.schemes.test_typemap_spelling import one_send, respelled

pytestmark = pytest.mark.faultfree

POISONS = (0xA5, 0x5A)

#: a capacity no other test builds a space of, so the spares are this
#: module's own
CAPACITY = 24 * MB
SIZE = 3 * MB


def poisoned(byte: int):
    """Fill every library buffer with ``byte`` as it is allocated."""
    real = NodeMemory.alloc_undefined

    def alloc_undefined(self, size, align=64):
        addr = real(self, size, align)
        self.view(addr, size)[:] = byte
        return addr

    return mock.patch.object(NodeMemory, "alloc_undefined", alloc_undefined)


# ----------------------------------------------------------------------
# library buffers: written before they are read
# ----------------------------------------------------------------------

@pytest.mark.parametrize("byte", POISONS)
def test_rendezvous_golden_under_poison(byte):
    with poisoned(byte):
        got = rendezvous.compute()
    assert got == json.loads(rendezvous.GOLDEN.read_text())


@pytest.mark.parametrize("byte", POISONS)
def test_hostbench_exact_under_poison(byte):
    """Every delivered payload is also checked by the cells' own oracle."""
    with poisoned(byte):
        got = hostbench_exact.compute()
    assert got == json.loads(hostbench_exact.GOLDEN.read_text())


@pytest.mark.parametrize("byte", POISONS)
def test_io_pack_cells_under_poison(byte):
    """The pack strategy stages through a bounce buffer from ``Node.malloc``."""
    pinned = [e for e in json.loads(io_golden.GOLDEN.read_text())
              if e["cell"]["strategy"] == "pack"]
    assert pinned
    with poisoned(byte):
        for entry in pinned:
            assert io_golden.run_cell(**entry["cell"]) == entry["result"], entry["cell"]


@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(layout=layouts())
def test_typemap_spelling_under_poison(layout):
    dt = layout[0]
    same = respelled(dt)
    threshold = CostModel.mellanox_2003().eager_threshold  # Cluster's default
    for count in (1, threshold // dt.size + 1):  # eager and rendezvous
        for scheme in SCHEME_NAMES:
            with poisoned(0):
                zero = one_send(scheme, dt, count)
            for byte in POISONS:
                with poisoned(byte):
                    assert one_send(scheme, dt, count) == zero, (scheme, byte)
                    assert one_send(scheme, same, count) == zero, (scheme, byte)


@settings(
    max_examples=3, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workloads())
def test_fuzz_programs_under_poison(workload):
    def outcome():
        r = replay(workload, collect_payloads=True)
        return r.time_us, r.digests, r.payloads, r.values

    with poisoned(0):
        zero = outcome()
    for byte in POISONS:
        with poisoned(byte):
            assert outcome() == zero, byte


# ----------------------------------------------------------------------
# program buffers: zero over a previous owner's bytes
# ----------------------------------------------------------------------

def _scribbled_world(byte: int) -> tuple[Cluster, list]:
    """A finished 2-rank world whose program wrote ``byte`` over a
    ``2 * SIZE`` buffer a rank; the buffers' addresses."""
    # worlds an earlier test left for the collector die first: dying with
    # this one they would push its spaces off the bounded free list
    gc.collect()
    addrs = []

    def scribble(mpi):
        addr = mpi.alloc(2 * SIZE)
        mpi.node.memory.view(addr, 2 * SIZE)[:] = byte
        addrs.append(addr)
        yield from mpi.barrier()

    cluster = Cluster(2, memory_per_rank=CAPACITY)
    cluster.run(scribble)
    return cluster, addrs


def test_alloc_and_alloc_array_read_zero_in_a_recycled_space():
    old, addrs = _scribbled_world(0xEE)
    del old
    gc.collect()  # a Cluster is a cycle: its spaces die at a collection
    seen = []

    def program(mpi):
        memory, old_addr = mpi.node.memory, addrs[mpi.rank]
        # recycled: the free range still holds the dead owner's bytes
        before = memory.view(old_addr, 2 * SIZE).copy()
        array = mpi.alloc_array((SIZE // 8,), np.int64)
        addr = mpi.alloc(SIZE)
        seen.append((
            (before == 0xEE).all(),
            array.addr == old_addr and addr == old_addr + SIZE,
            not array.array.any() and not memory.view(addr, SIZE).any(),
        ))
        yield from mpi.barrier()

    Cluster(2, memory_per_rank=CAPACITY).run(program)
    assert seen == [(True, True, True)] * 2


def test_a_file_reads_zero_in_a_recycled_store():
    def world():
        return StorageCluster(1, store_capacity=CAPACITY, memory_per_client=CAPACITY)

    def open_file(io):
        yield from io.open("f", SIZE)

    old = world()
    old.run(open_file)
    old.server.file_view("f")[:] = 0xEE
    del old
    gc.collect()
    new = world()
    new.run(open_file)
    assert not new.server.file_view("f").any()


def test_a_view_that_outlives_its_world_keeps_its_bytes():
    old, addrs = _scribbled_world(0xEE)
    kept = old.contexts[0].node.memory.view(addrs[0], 2 * SIZE)
    del old
    gc.collect()
    new, _ = _scribbled_world(0x11)
    assert (kept == 0xEE).all()
    for ctx in new.contexts:
        assert not np.shares_memory(kept, ctx.node.memory.view(0, CAPACITY))


def test_a_bare_space_recycles_and_zeroes_what_it_hands_out():
    memory = NodeMemory(0, CAPACITY)
    addr = memory.alloc(SIZE)
    memory.view(addr, SIZE)[:] = 0xEE
    del memory
    memory = NodeMemory(0, CAPACITY)
    assert (memory.view(addr, SIZE) == 0xEE).all()
    assert memory.alloc_undefined(SIZE) == addr
    assert (memory.view(addr, SIZE) == 0xEE).all()
    memory.free(addr)
    assert memory.alloc(SIZE) == addr
    assert not memory.view(addr, SIZE).any()
