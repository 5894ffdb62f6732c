"""Tests for MPI_Comm_split and sub-communicator operation."""

import numpy as np
import pytest

from repro import Cluster, types


class TestSplit:
    def test_row_column_ranks(self):
        """4 ranks as a 2x2 grid: row and column communicators."""

        def program(mpi):
            row = yield from mpi.comm_split(color=mpi.rank // 2, key=mpi.rank)
            col = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            return (row.rank, row.nranks, row.members, col.rank, col.members)

        res = Cluster(4).run(program)
        assert res.values[0] == (0, 2, [0, 1], 0, [0, 2])
        assert res.values[3] == (1, 2, [2, 3], 1, [1, 3])

    def test_key_orders_ranks(self):
        def program(mpi):
            comm = yield from mpi.comm_split(color=0, key=-mpi.rank)
            return comm.rank

        res = Cluster(3).run(program)
        assert res.values == [2, 1, 0]  # reversed by key

    def test_undefined_color(self):
        def program(mpi):
            comm = yield from mpi.comm_split(
                color=None if mpi.rank == 1 else 0
            )
            yield mpi.sim.timeout(0.0)
            return comm.members if comm else None

        res = Cluster(3).run(program)
        assert res.values[1] is None
        assert res.values[0] == [0, 2]


class TestSubCommTraffic:
    def test_send_recv_translates_ranks(self):
        dt = types.contiguous(16, types.INT)

        def program(mpi):
            comm = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            buf = mpi.alloc_array((16,), np.int32)
            if comm.rank == 0:
                buf.array[:] = 500 + mpi.rank
                yield from comm.send(buf.addr, dt, 1, dest=1, tag=0)
                return None
            yield from comm.recv(buf.addr, dt, 1, source=0, tag=0)
            return int(buf.array[0])

        res = Cluster(4).run(program)
        # comm {0,2}: rank2 receives from world rank 0; comm {1,3}: rank3 from 1
        assert res.values[2] == 500
        assert res.values[3] == 501

    def test_same_tag_isolated_between_comms(self):
        """Identical tags in sibling communicators never cross-match."""
        dt = types.contiguous(4, types.INT)

        def program(mpi):
            comm = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            buf = mpi.alloc_array((4,), np.int32)
            if comm.rank == 0:
                buf.array[:] = 100 + mpi.rank
                yield from comm.send(buf.addr, dt, 1, dest=1, tag=7)
                return None
            yield from comm.recv(buf.addr, dt, 1, source=0, tag=7)
            return int(buf.array[0])

        res = Cluster(4).run(program)
        assert res.values[2] == 100  # from world 0, not from world 1
        assert res.values[3] == 101

    def test_collectives_on_subcomm(self):
        def program(mpi):
            row = yield from mpi.comm_split(color=mpi.rank // 2, key=mpi.rank)
            send = mpi.alloc_array((8,), np.int32)
            send.array[:] = mpi.rank + 1
            recv = mpi.alloc_array((2, 8), np.int32)
            dt = types.contiguous(8, types.INT)
            yield from row.allgather(send.addr, dt, 1, recv.addr, dt, 1)
            return [int(recv.array[i, 0]) for i in range(2)]

        res = Cluster(4).run(program)
        assert res.values[0] == [1, 2]
        assert res.values[2] == [3, 4]

    def test_alltoall_resized_slabs_on_subcomm(self):
        """Alltoall of resized vector column slabs within each row of a
        2x2 grid: chunk j of a rank's row panel lands on row rank j."""
        n = 32

        def program(mpi):
            row = yield from mpi.comm_split(color=mpi.rank // 2, key=mpi.rank)
            p = row.nranks
            rows = cols = n // p
            panel = mpi.alloc_array((rows, n), np.float64)
            first = row.rank * rows
            panel.array[:] = (
                np.arange(first, first + rows)[:, None] * n + np.arange(n)
                + 1000 * (mpi.rank // 2)
            )
            recv = mpi.alloc_array((p, rows, cols), np.float64)
            slab = types.vector(rows, cols, n, types.DOUBLE)
            send_chunk = types.resized(slab, lb=0, extent=cols * 8)
            recv_chunk = types.contiguous(rows * cols, types.DOUBLE)
            yield from row.alltoall(
                panel.addr, send_chunk, 1, recv.addr, recv_chunk, 1
            )
            mine = np.concatenate(list(recv.array), axis=0)
            first_col = row.rank * cols
            expect = (
                np.arange(n)[:, None] * n
                + np.arange(first_col, first_col + cols)
                + 1000 * (mpi.rank // 2)
            )
            return bool(np.array_equal(mine, expect))

        res = Cluster(4).run(program)
        assert res.values == [True] * 4

    def test_allreduce_on_subcomm(self):
        def program(mpi):
            comm = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            send = mpi.alloc_array((4,), np.int64)
            send.array[:] = mpi.rank
            recv = mpi.alloc_array((4,), np.int64)
            yield from comm.allreduce(send.addr, recv.addr, 4, np.int64, "sum")
            return int(recv.array[0])

        res = Cluster(6).run(program)
        # evens: 0+2+4=6; odds: 1+3+5=9
        assert res.values == [6, 9, 6, 9, 6, 9]

    def test_barrier_on_subcomm_does_not_block_others(self):
        def program(mpi):
            comm = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
            if mpi.rank % 2 == 0:
                yield from comm.barrier()
                return mpi.now
            # odd ranks never enter a barrier; they just finish
            yield mpi.sim.timeout(1.0)
            return mpi.now

        res = Cluster(4).run(program)  # must not deadlock
        assert all(v >= 0 for v in res.values)
