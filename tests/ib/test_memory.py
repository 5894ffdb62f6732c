"""Unit tests for the node address space, allocator and MR table."""

import numpy as np
import pytest

from repro.ib.memory import NodeMemory, ProtectionError


@pytest.fixture
def mem():
    return NodeMemory(node=0, capacity=1 << 20)


class TestAllocator:
    def test_alloc_returns_aligned(self, mem):
        addr = mem.alloc(100, align=64)
        assert addr % 64 == 0

    def test_alloc_distinct_ranges(self, mem):
        a = mem.alloc(1000)
        b = mem.alloc(1000)
        assert a + 1000 <= b or b + 1000 <= a

    def test_free_then_realloc_reuses(self, mem):
        a = mem.alloc(1000)
        mem.free(a)
        b = mem.alloc(1000)
        assert b == a

    def test_exhaustion_raises(self, mem):
        with pytest.raises(MemoryError):
            mem.alloc(2 << 20)

    def test_free_unknown_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.free(12345)

    def test_coalescing(self, mem):
        a = mem.alloc(mem.capacity // 4, align=1)
        b = mem.alloc(mem.capacity // 4, align=1)
        c = mem.alloc(mem.capacity // 4, align=1)
        mem.free(a)
        mem.free(c)
        mem.free(b)  # middle free must coalesce with both neighbours
        big = mem.alloc(mem.capacity, align=1)  # full space available again
        assert big == 0

    def test_bad_size(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(0)

    def test_bad_align(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(8, align=3)

    def test_peak_tracking(self, mem):
        a = mem.alloc(1000)
        b = mem.alloc(2000)
        mem.free(a)
        mem.free(b)
        assert mem.peak_allocated == 3000

    def test_alloc_size(self, mem):
        a = mem.alloc(777)
        assert mem.alloc_size(a) == 777


class TestViews:
    def test_view_is_writable_window(self, mem):
        addr = mem.alloc(16)
        mem.view(addr, 16)[:] = np.arange(16, dtype=np.uint8)
        assert list(mem.view(addr, 4)) == [0, 1, 2, 3]

    def test_view_bounds_checked(self, mem):
        with pytest.raises(ValueError):
            mem.view(mem.capacity - 4, 8)

    def test_view_as_typed(self, mem):
        addr = mem.alloc(64)
        arr = mem.view_as(addr, (4, 4), np.int32)
        arr[:] = 7
        assert mem.view(addr, 64).view(np.int32).sum() == 7 * 16


class TestRegistration:
    def test_register_returns_keys(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        assert mr.lkey != mr.rkey

    def test_check_local_passes_inside(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        mem.check_local(addr + 100, 200, mr.lkey)

    def test_check_local_rejects_outside(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        with pytest.raises(ProtectionError):
            mem.check_local(addr, 5000, mr.lkey)

    def test_check_local_rejects_unknown_key(self, mem):
        with pytest.raises(ProtectionError):
            mem.check_local(0, 4, 99999)

    def test_check_remote(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        mem.check_remote(addr, 4096, mr.rkey)
        with pytest.raises(ProtectionError):
            mem.check_remote(addr, 4097, mr.rkey)
        with pytest.raises(ProtectionError):
            mem.check_remote(addr, 10, 424242)

    def test_deregister_removes(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        mem.deregister(mr)
        with pytest.raises(ProtectionError):
            mem.check_local(addr, 4, mr.lkey)

    def test_rkey_unknown_after_deregister(self, mem):
        a, b = mem.alloc(4096), mem.alloc(4096)
        mr_a, mr_b = mem.register(a, 4096), mem.register(b, 4096)
        mem.deregister(mr_a)
        with pytest.raises(ProtectionError, match=f"unknown rkey {mr_a.rkey}"):
            mem.check_remote(a, 4, mr_a.rkey)
        mem.check_remote(b, 4096, mr_b.rkey)  # the other region still answers
        with pytest.raises(ProtectionError, match="does not cover"):
            mem.check_remote(a, 4, mr_b.rkey)

    def test_deregister_twice_rejected(self, mem):
        addr = mem.alloc(4096)
        mr = mem.register(addr, 4096)
        mem.deregister(mr)
        with pytest.raises(ValueError):
            mem.deregister(mr)

    def test_registered_bytes(self, mem):
        a = mem.alloc(4096)
        b = mem.alloc(8192)
        mem.register(a, 4096)
        mem.register(b, 8192)
        assert mem.registered_bytes == 12288

    def test_bad_region(self, mem):
        with pytest.raises(ValueError):
            mem.register(0, 0)
        with pytest.raises(ValueError):
            mem.register(mem.capacity - 10, 100)
