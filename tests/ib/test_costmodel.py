"""Unit tests for the cost model."""

import math

import pytest

from repro.ib.costmodel import MB, CostModel, get_preset


@pytest.fixture
def cm():
    return CostModel.mellanox_2003()


class TestPages:
    def test_zero_bytes(self, cm):
        assert cm.pages(0) == 0

    def test_single_page(self, cm):
        assert cm.pages(1) == 1
        assert cm.pages(4096) == 1

    def test_page_boundary(self, cm):
        assert cm.pages(4097) == 2

    def test_unaligned_start_spans_extra_page(self, cm):
        # 4096 bytes starting at offset 1 touch two pages
        assert cm.pages(4096, addr=1) == 2
        assert cm.pages(4096, addr=0) == 1


class TestTimes:
    def test_copy_time_zero(self, cm):
        assert cm.copy_time(0) == 0.0

    def test_copy_time_linear(self, cm):
        t1 = cm.copy_time(1 * MB)
        t2 = cm.copy_time(2 * MB)
        assert t2 - t1 == pytest.approx(1 * MB / cm.copy_bandwidth)

    def test_wire_comparable_to_copy(self, cm):
        # the paper's premise: wire bandwidth comparable to (here slightly
        # above) effective memcpy bandwidth
        assert 0.7 < cm.wire_bandwidth / cm.copy_bandwidth < 1.6

    def test_descriptor_time_includes_startup(self, cm):
        assert cm.descriptor_time(0, 1) == pytest.approx(cm.hca_startup)

    def test_descriptor_time_per_sge(self, cm):
        base = cm.descriptor_time(1000, 1)
        many = cm.descriptor_time(1000, 11)
        assert many - base == pytest.approx(10 * cm.hca_per_sge)

    def test_post_time_single_vs_list(self, cm):
        assert cm.post_time(10) == pytest.approx(10 * cm.post_descriptor)
        listed = cm.post_time(10, list_post=True)
        assert listed == pytest.approx(cm.post_list_first + 9 * cm.post_list_extra)
        assert listed < cm.post_time(10)

    def test_post_time_zero(self, cm):
        assert cm.post_time(0) == 0.0
        assert cm.post_time(0, list_post=True) == 0.0

    def test_pack_time_counts_blocks(self, cm):
        few = cm.pack_time(4096, 1)
        many = cm.pack_time(4096, 64)
        assert many > few

    def test_reg_scales_with_pages(self, cm):
        assert cm.reg_time(1 * MB) > cm.reg_time(4096)
        assert cm.reg_time(1 * MB) == pytest.approx(
            cm.reg_base + 256 * cm.reg_per_page
        )

    def test_malloc_includes_page_faults(self, cm):
        assert cm.malloc_time(1 * MB) == pytest.approx(
            cm.malloc_base + 256 * cm.page_fault
        )


class TestSegmentRule:
    """The paper's static segment-size rule (Section 7.2)."""

    def test_large_message_uses_max_segment(self, cm):
        assert cm.segment_size_for(1 * MB) == 128 * 1024
        assert cm.segment_size_for(4 * MB) == 128 * 1024

    def test_medium_message_at_least_two_segments(self, cm):
        for size in (16 * 1024, 64 * 1024, 100 * 1024, MB - 1):
            seg = cm.segment_size_for(size)
            assert seg <= 128 * 1024
            assert math.ceil(size / seg) >= 2, size

    def test_small_message_single_segment(self, cm):
        assert cm.segment_size_for(8 * 1024) == 8 * 1024
        assert cm.segment_size_for(100) == 100


class TestPresets:
    def test_overrides(self, cm):
        cm2 = cm.with_overrides(wire_latency=9.9)
        assert cm2.wire_latency == 9.9
        assert cm.wire_latency != 9.9  # original untouched

    def test_presets_differ(self):
        assert CostModel.fast_network().wire_bandwidth > CostModel.mellanox_2003().wire_bandwidth
        assert CostModel.slow_network().wire_bandwidth < CostModel.mellanox_2003().wire_bandwidth

    def test_frozen(self, cm):
        with pytest.raises(Exception):
            cm.wire_latency = 1.0


class TestPresetRegistry:
    def test_unknown_preset_names_the_choices(self):
        with pytest.raises(KeyError, match="mellanox_2003"):
            get_preset("infiniband_2099")

    def test_preset_eras_are_ordered(self):
        """Newer fabrics must actually be faster in the model."""
        old = get_preset("mellanox_2003")
        hdr = get_preset("hdr_ib_2020")
        ndr = get_preset("ndr_ib_2023")
        assert hdr.wire_bandwidth > old.wire_bandwidth
        assert ndr.wire_bandwidth > hdr.wire_bandwidth
        assert ndr.wire_latency <= hdr.wire_latency <= old.wire_latency

    def test_gpu_preset_models_kernel_launch_in_dt_startup(self):
        """TEMPI packs all blocks in one kernel: the launch cost must be
        charged per pack invocation (dt_startup), not per block."""
        gpu = get_preset("gpu_kernel_pack")
        host = get_preset("mellanox_2003")
        assert gpu.dt_startup > host.dt_startup
        assert gpu.copy_startup < 1.0  # per-block cost stays tiny
        assert gpu.copy_bandwidth > host.copy_bandwidth  # HBM vs DDR
