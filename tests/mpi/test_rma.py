"""Tests for one-sided communication (MPI-2 RMA) over the simulated verbs."""

import numpy as np
import pytest

from repro import Cluster, types


def make_window_program(body, win_ints=1024):
    """Each rank creates a window over an int32 array initialized to its
    rank id, then runs ``body(mpi, win, array)``."""

    def program(mpi):
        arr = mpi.alloc_array((win_ints,), np.int32)
        arr.array[:] = mpi.rank
        win = yield from mpi.win_create(arr.addr, win_ints * 4)
        result = yield from body(mpi, win, arr)
        return result

    return program


class TestPutGet:
    def test_put_contiguous(self):
        dt = types.contiguous(256, types.INT)

        def body(mpi, win, arr):
            src = mpi.alloc_array((256,), np.int32)
            src.array[:] = 100 + mpi.rank
            if mpi.rank == 0:
                yield from mpi.put(win, 1, src.addr, dt)
            yield from mpi.win_fence(win)
            return int(arr.array[0]), int(arr.array[255]), int(arr.array[256])

        res = Cluster(2).run(make_window_program(body))
        assert res.values[1] == (100, 100, 1)  # first 256 ints overwritten
        assert res.values[0] == (0, 0, 0)  # rank 0 untouched

    def test_put_with_target_displacement(self):
        dt = types.contiguous(16, types.INT)

        def body(mpi, win, arr):
            src = mpi.alloc_array((16,), np.int32)
            src.array[:] = 7
            if mpi.rank == 0:
                yield from mpi.put(win, 1, src.addr, dt, target_disp=400)
            yield from mpi.win_fence(win)
            return int(arr.array[99]), int(arr.array[100]), int(arr.array[116])

        res = Cluster(2).run(make_window_program(body))
        assert res.values[1] == (1, 7, 1)  # ints 100..115 overwritten

    def test_put_noncontiguous_target(self):
        """The origin drives a strided *target* layout — the case that
        needs no receiver datatype exchange in RMA."""
        origin_dt = types.contiguous(64, types.INT)
        target_dt = types.vector(64, 1, 4, types.INT)  # every 4th int

        def body(mpi, win, arr):
            src = mpi.alloc_array((64,), np.int32)
            src.array[:] = np.arange(64)
            if mpi.rank == 0:
                yield from mpi.put(
                    win, 1, src.addr, origin_dt, target_dt=target_dt
                )
            yield from mpi.win_fence(win)
            return arr.array[:16].tolist()

        res = Cluster(2).run(make_window_program(body))
        # ints at stride 4 hold 0,1,2,3...; others keep rank id 1
        assert res.values[1] == [0, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 3, 1, 1, 1]

    def test_get_contiguous(self):
        dt = types.contiguous(128, types.INT)

        def body(mpi, win, arr):
            dst = mpi.alloc_array((128,), np.int32)
            dst.array[:] = -1
            peer = (mpi.rank + 1) % mpi.nranks
            yield from mpi.get(win, peer, dst.addr, dt)
            yield from mpi.win_fence(win)
            return int(dst.array[0]), int(dst.array[-1])

        res = Cluster(3).run(make_window_program(body))
        assert res.values == [(1, 1), (2, 2), (0, 0)]

    def test_get_noncontiguous_both_sides(self):
        origin_dt = types.vector(16, 2, 8, types.INT)
        target_dt = types.vector(32, 1, 2, types.INT)
        assert origin_dt.size == target_dt.size

        def body(mpi, win, arr):
            span = origin_dt.flatten(1).span + 64
            dst = mpi.alloc(span)
            if mpi.rank == 0:
                yield from mpi.get(
                    win, 1, dst, origin_dt, target_dt=target_dt
                )
            yield from mpi.win_fence(win)
            if mpi.rank == 0:
                flat = origin_dt.flatten(1)
                got = np.concatenate([
                    mpi.node.memory.view(dst + off, ln) for off, ln in flat.blocks()
                ]).view(np.int32)
                return got.tolist()

        res = Cluster(2).run(make_window_program(body))
        assert res.values[0] == [1] * 32  # rank 1's window data

    def test_local_put_and_get(self):
        dt = types.contiguous(32, types.INT)

        def body(mpi, win, arr):
            src = mpi.alloc_array((32,), np.int32)
            src.array[:] = 55
            yield from mpi.put(win, mpi.rank, src.addr, dt)
            dst = mpi.alloc_array((32,), np.int32)
            yield from mpi.get(win, mpi.rank, dst.addr, dt)
            yield from mpi.win_fence(win)
            return int(arr.array[0]), int(dst.array[0])

        res = Cluster(1).run(make_window_program(body))
        assert res.values[0] == (55, 55)

    def test_access_outside_window_rejected(self):
        dt = types.contiguous(64, types.INT)

        def body(mpi, win, arr):
            src = mpi.alloc_array((64,), np.int32)
            if mpi.rank == 0:
                yield from mpi.put(win, 1, src.addr, dt, target_disp=4000)
            yield from mpi.win_fence(win)

        with pytest.raises(ValueError, match="outside"):
            Cluster(2).run(make_window_program(body))


class TestFence:
    def test_fence_makes_puts_visible(self):
        """After the fence, every rank observes every other rank's put."""
        n = 4
        dt = types.contiguous(1, types.INT)

        def body(mpi, win, arr):
            src = mpi.alloc_array((1,), np.int32)
            src.array[:] = 1000 + mpi.rank
            for target in range(n):
                if target != mpi.rank:
                    yield from mpi.put(
                        win, target, src.addr, dt, target_disp=mpi.rank * 4
                    )
            yield from mpi.win_fence(win)
            return [int(arr.array[r]) for r in range(n)]

        res = Cluster(n).run(make_window_program(body))
        for rank, vals in enumerate(res.values):
            for r in range(n):
                expect = rank if r == rank else 1000 + r
                assert vals[r] == expect, (rank, r)

    def test_double_fence_idempotent(self):
        def body(mpi, win, arr):
            yield from mpi.win_fence(win)
            yield from mpi.win_fence(win)
            return True

        res = Cluster(2).run(make_window_program(body))
        assert all(res.values)


def zero_rate_faults(cluster):
    """An enabled fault plan under which nothing can ever fire: every node
    takes the per-descriptor path (a write list is iterated, no fold)."""
    from repro.faults import FaultInjector, FaultPlan

    injector = FaultInjector(cluster.sim, FaultPlan(), cluster.metrics)
    injector.enabled = True
    for ctx in cluster.contexts:
        ctx.node.fault_injector = injector
    return cluster


class TestLandingOrder:
    """Two puts of one epoch may target the same window bytes: one run of
    the origin's HCA carries both lists, and the later put is what the
    fence shows — RC ordering, whatever the HCA batches."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "zero-rate"])
    @pytest.mark.parametrize("blocks", [1, 2, 300])
    def test_the_later_put_wins(self, faulted, blocks):
        # 8-byte blocks at stride 16: `blocks` pieces per put (one piece is
        # a list of one); the second put covers the first's blocks and more
        first_dt = types.vector(blocks, 2, 4, types.INT)
        second_dt = types.vector(blocks + 3, 2, 4, types.INT)

        def body(mpi, win, arr):
            a = mpi.alloc_array((4 * blocks,), np.int32)
            b = mpi.alloc_array((4 * (blocks + 3),), np.int32)
            a.array[:] = 111
            b.array[:] = np.arange(4 * (blocks + 3)) + 1000
            if mpi.rank == 0:
                yield from mpi.put(win, 1, a.addr, first_dt, target_disp=32)
                yield from mpi.put(win, 1, b.addr, second_dt)
                # and an earlier, larger put partly overwritten by a later one
                yield from mpi.put(win, 1, b.addr, second_dt, target_disp=8192)
                yield from mpi.put(win, 1, a.addr, first_dt, target_disp=8192 + 32)
            yield from mpi.win_fence(win)
            return arr.array.copy()

        cluster = Cluster(2)
        if faulted:
            zero_rate_faults(cluster)
        res = cluster.run(make_window_program(body, win_ints=4096))
        want = np.full(4096, 1, dtype=np.int32)
        first = np.zeros(4 * blocks, dtype=bool)
        first[np.arange(4 * blocks) % 4 < 2] = True
        second = np.arange(4 * (blocks + 3)) % 4 < 2
        values = np.arange(4 * (blocks + 3)) + 1000
        want[8 : 8 + 4 * blocks][first] = 111
        want[: 4 * (blocks + 3)][second] = values[second]
        want[2048 : 2048 + 4 * (blocks + 3)][second] = values[second]
        want[2048 + 8 : 2048 + 8 + 4 * blocks][first] = 111
        assert (res.values[1] == want).all()
        assert (res.values[0] == 0).all()

    @pytest.mark.faultfree  # a fault fallback sends a message as Generic
    def test_list_and_single_posts_agree(self):
        """Multi-W posts the same refinement as one list or one by one."""
        n = 4 * 4000  # 32 KB of 8-byte blocks: a rendezvous message
        dt = types.vector(n // 4, 2, 4, types.INT)

        def run(list_post):
            def rank0(mpi):
                buf = mpi.alloc_array((n,), np.int32)
                buf.array[:] = np.arange(n)
                yield from mpi.send(buf.addr, dt, 1, dest=1, tag=0)
                buf.array[:] = -np.arange(n)  # same target bytes, new data
                yield from mpi.send(buf.addr, dt, 1, dest=1, tag=1)

            def rank1(mpi):
                buf = mpi.alloc_array((n,), np.int32)
                for tag in (0, 1):
                    yield from mpi.recv(buf.addr, dt, 1, source=0, tag=tag)
                return buf.array.copy()

            cluster = Cluster(
                2, scheme="multi-w", scheme_options={"list_post": list_post}
            )
            result = cluster.run([rank0, rank1])
            assert cluster.metrics.value("scheme.rdma_pieces") == 2 * n // 4
            return result.values[1]

        listed, single = run(True), run(False)
        assert (listed == single).all()
        assert listed[0] == 0 and listed[5] == -5 and listed[2] == 0


class TestLocks:
    def test_exclusive_lock_serializes_epochs(self):
        """Two origins increment the same counter under a lock; both
        updates survive (no lost update)."""
        n = 3  # rank 0 is the target
        dt = types.contiguous(1, types.INT)

        def body(mpi, win, arr):
            if mpi.rank == 0:
                # target: just wait for the others at the end
                yield from mpi.barrier()
                return int(arr.array[0])
            tmp = mpi.alloc_array((1,), np.int32)
            yield from mpi.win_lock(win, 0)
            yield from mpi.get(win, 0, tmp.addr, dt)
            # get completes at unlock/fence; here we order via unlock:
            # read-modify-write inside the epoch
            yield from mpi.win_unlock(win, 0)
            yield from mpi.win_lock(win, 0)
            tmp.array[0] += 10
            yield from mpi.put(win, 0, tmp.addr, dt)
            yield from mpi.win_unlock(win, 0)
            yield from mpi.barrier()
            return None

        res = Cluster(n).run(make_window_program(body))
        # both increments happened on top of SOME value; with the window
        # initialized to 0 (rank id of target), final is 10 or 20
        # depending on interleaving of the read epochs; what the lock
        # guarantees here is that the final value is one of the two
        # serializable outcomes, never a torn/other value
        assert res.values[0] in (10, 20)

    def test_lock_blocks_second_origin(self):
        """While rank 1 holds the lock, rank 2's epoch waits."""
        timestamps = {}

        def body(mpi, win, arr):
            if mpi.rank == 0:
                yield from mpi.barrier()
                return None
            if mpi.rank == 1:
                yield from mpi.win_lock(win, 0)
                yield mpi.sim.timeout(500.0)  # hold the lock
                yield from mpi.win_unlock(win, 0)
                yield from mpi.barrier()
                return None
            # rank 2 starts later, must wait out rank 1's hold
            yield mpi.sim.timeout(100.0)
            t0 = mpi.now
            yield from mpi.win_lock(win, 0)
            timestamps["acquired"] = mpi.now - t0
            yield from mpi.win_unlock(win, 0)
            yield from mpi.barrier()
            return None

        Cluster(3).run(make_window_program(body))
        assert timestamps["acquired"] > 350.0  # waited for most of the hold
