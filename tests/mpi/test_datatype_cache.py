"""Unit tests for the receiver-datatype cache (Section 5.4.2)."""

import pytest

from repro.datatypes.flatten import Flattened
from repro.mpi.datatype_cache import DatatypeCache, ReceiverTypeRegistry


def flat(*blocks):
    return Flattened.from_blocks(blocks)


class TestReceiverRegistry:
    def test_intern_assigns_index(self):
        reg = ReceiverTypeRegistry()
        idx, ver = reg.intern(("a",), flat((0, 4)))
        assert ver == 1
        idx2, ver2 = reg.intern(("b",), flat((0, 8)))
        assert idx2 != idx

    def test_intern_same_signature_same_index(self):
        reg = ReceiverTypeRegistry()
        a = reg.intern(("a",), flat((0, 4)))
        assert reg.intern(("a",), flat((0, 4))) == a

    def test_encode_full_then_ref(self):
        reg = ReceiverTypeRegistry()
        f = flat((0, 4), (8, 4))
        first = reg.encode_for(peer=1, signature=("a",), flattened=f)
        assert first[0] == "full"
        second = reg.encode_for(peer=1, signature=("a",), flattened=f)
        assert second[0] == "ref"

    def test_encode_per_peer_state(self):
        reg = ReceiverTypeRegistry()
        f = flat((0, 4))
        reg.encode_for(peer=1, signature=("a",), flattened=f)
        other = reg.encode_for(peer=2, signature=("a",), flattened=f)
        assert other[0] == "full"  # peer 2 never saw it

    def test_free_and_reuse_bumps_version(self):
        """The paper's extension: freed index reused -> version change ->
        receiver resends the full representation."""
        reg = ReceiverTypeRegistry(max_indices=1)
        f1, f2 = flat((0, 4)), flat((0, 8))
        idx1, ver1 = reg.intern(("a",), f1)
        reg.free(("a",))
        idx2, ver2 = reg.intern(("b",), f2)
        assert idx2 == idx1  # index reused
        assert ver2 == ver1 + 1  # version bumped
        assert reg.evictions == 1  # the reuse is counted as an eviction

    def test_reuse_forces_full_resend(self):
        reg = ReceiverTypeRegistry(max_indices=1)
        f1, f2 = flat((0, 4)), flat((0, 8))
        assert reg.encode_for(1, ("a",), f1)[0] == "full"
        assert reg.encode_for(1, ("a",), f1)[0] == "ref"
        reg.free(("a",))
        enc = reg.encode_for(1, ("b",), f2)
        assert enc[0] == "full"
        assert enc[2] == 2  # new version


class TestSenderCache:
    def test_full_then_ref_roundtrip(self):
        reg = ReceiverTypeRegistry()
        cache = DatatypeCache()
        f = flat((0, 4), (8, 4))
        enc1 = reg.encode_for(1, ("a",), f)
        assert cache.resolve(1, enc1) == f
        enc2 = reg.encode_for(1, ("a",), f)
        assert cache.resolve(1, enc2) == f
        assert cache.hits == 1 and cache.misses == 1

    def test_ref_without_full_is_protocol_error(self):
        cache = DatatypeCache()
        with pytest.raises(KeyError):
            cache.resolve(1, ("ref", 0, 1))

    def test_version_mismatch_detected(self):
        reg = ReceiverTypeRegistry()
        cache = DatatypeCache()
        f = flat((0, 4))
        cache.resolve(1, reg.encode_for(1, ("a",), f))
        with pytest.raises(KeyError):
            cache.resolve(1, ("ref", 0, 99))

    def test_bad_encoding(self):
        with pytest.raises(ValueError):
            DatatypeCache().resolve(1, ("junk",))

    def test_hit_rate(self):
        cache = DatatypeCache()
        assert cache.hit_rate == 0.0
        reg = ReceiverTypeRegistry()
        f = flat((0, 4))
        cache.resolve(1, reg.encode_for(1, ("a",), f))
        cache.resolve(1, reg.encode_for(1, ("a",), f))
        assert cache.hit_rate == 0.5

    def test_full_replacement_counts_eviction(self):
        """A 'full' layout replacing a cached (peer, index) entry is an
        eviction: the obsolete datatype is dropped (Section 5.4.2)."""
        reg = ReceiverTypeRegistry(max_indices=1)
        cache = DatatypeCache()
        f1, f2 = flat((0, 4)), flat((0, 8))
        cache.resolve(1, reg.encode_for(1, ("a",), f1))
        assert cache.evictions == 0
        reg.free(("a",))
        cache.resolve(1, reg.encode_for(1, ("b",), f2))  # same index, v2
        assert cache.evictions == 1
        assert cache.misses == 2

    def test_eviction_counters_reach_metrics(self):
        from repro.simulator.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        reg = ReceiverTypeRegistry(max_indices=1, metrics=metrics, node=1)
        cache = DatatypeCache(metrics=metrics, node=0)
        f1, f2 = flat((0, 4)), flat((0, 8))
        cache.resolve(1, reg.encode_for(0, ("a",), f1))
        reg.free(("a",))
        cache.resolve(1, reg.encode_for(0, ("b",), f2))
        assert metrics.counter("dtype.registry.evictions", 1).value == 1
        assert metrics.counter("dtype.cache.evictions", 0).value == 1
        assert metrics.counter("dtype.cache.misses", 0).value == 2

    def test_per_peer_isolation(self):
        """Layouts cached for one peer do not serve another."""
        reg1 = ReceiverTypeRegistry()
        cache = DatatypeCache()
        f = flat((0, 4))
        cache.resolve(1, reg1.encode_for(0, ("a",), f))
        with pytest.raises(KeyError):
            cache.resolve(2, ("ref", 0, 1))
