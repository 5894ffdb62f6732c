"""Tests for Optimistic Group Registration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ib import CostModel, Fabric
from repro.ib.costmodel import PRESETS, get_preset
from repro.registration.ogr import GroupRegistration, plan_cost, plan_regions
from repro.simulator import Simulator


@pytest.fixture
def cm():
    return CostModel.mellanox_2003()


def covers(regions, blocks):
    return all(
        any(ra <= a and a + l <= ra + rl for ra, rl in regions) for a, l in blocks
    )


class TestPlanRegions:
    def test_empty(self, cm):
        assert plan_regions([], cm) == []

    def test_single_block(self, cm):
        assert plan_regions([(100, 50)], cm) == [(100, 50)]

    def test_small_gap_merged(self, cm):
        # 1-page gap costs reg_per_page << reg_base: merge
        blocks = [(0, 4096), (8192, 4096)]
        plan = plan_regions(blocks, cm)
        assert len(plan) == 1
        assert covers(plan, blocks)

    def test_huge_gap_kept_separate(self, cm):
        # gap of 1000 pages costs 1000*reg_per_page >> reg_base: split
        blocks = [(0, 4096), (4096 * 1001, 4096)]
        plan = plan_regions(blocks, cm)
        assert len(plan) == 2
        assert covers(plan, blocks)

    def test_threshold_gap(self, cm):
        # merge exactly when pages(gap)*per_page < base
        threshold_pages = int(cm.reg_base / cm.reg_per_page)
        gap_small = (threshold_pages - 2) * cm.page_size
        gap_big = (threshold_pages + 2) * cm.page_size
        small = plan_regions([(0, 4096), (4096 + gap_small, 4096)], cm)
        big = plan_regions([(0, 4096), (4096 + gap_big, 4096)], cm)
        assert len(small) == 1
        assert len(big) == 2

    def test_adjacent_blocks_merge(self, cm):
        plan = plan_regions([(0, 100), (100, 100)], cm)
        assert plan == [(0, 200)]

    def test_unsorted_input(self, cm):
        plan = plan_regions([(8192, 100), (0, 100)], cm)
        assert covers(plan, [(0, 100), (8192, 100)])
        assert plan == sorted(plan)

    def test_overlap_rejected(self, cm):
        with pytest.raises(ValueError):
            plan_regions([(0, 100), (50, 100)], cm)

    def test_zero_length_blocks_dropped(self, cm):
        assert plan_regions([(0, 0), (10, 5)], cm) == [(10, 5)]

    def test_plan_beats_extremes(self, cm):
        """OGR cost <= both naive strategies (Section 5.4.1)."""
        blocks = [(i * 3 * 4096, 4096) for i in range(10)] + [
            (4096 * 2000 + i * 4096 * 300, 2048) for i in range(5)
        ]
        plan = plan_regions(blocks, cm)
        per_block = plan_cost(cm, blocks)
        lo = min(a for a, _ in blocks)
        hi = max(a + l for a, l in blocks)
        whole = plan_cost(cm, [(lo, hi - lo)])
        ours = plan_cost(cm, plan)
        assert ours <= per_block
        assert ours <= whole

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 16)), min_size=1, max_size=8
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_optimal_for_small_inputs(self, raw):
        """For <= 8 blocks, greedy matches brute-force over all gap
        merge/split decisions."""
        cm = CostModel.mellanox_2003()
        # build disjoint blocks in page units
        blocks, pos = [], 0
        for gap, length in raw:
            pos += gap * cm.page_size
            blocks.append((pos, length * cm.page_size))
            pos += length * cm.page_size
        plan = plan_regions(blocks, cm)
        best = float("inf")
        n = len(blocks)
        for mask in itertools.product([0, 1], repeat=n - 1):
            regions = [list(blocks[0])]
            ok = True
            for bit, (addr, length) in zip(mask, blocks[1:]):
                if bit:
                    regions[-1][1] = addr + length - regions[-1][0]
                else:
                    regions.append([addr, length])
            best = min(best, plan_cost(cm, [(a, l) for a, l in regions]))
        assert plan_cost(cm, plan) == pytest.approx(best)


def sequential_plan(blocks, cm):
    """The per-block greedy loop ``plan_regions`` used to be — three
    ``reg_time`` evaluations a block — kept as the oracle."""
    blocks = sorted((int(a), int(l)) for a, l in blocks if l > 0)
    if not blocks:
        return []
    regions = [list(blocks[0])]
    for addr, length in blocks[1:]:
        cur = regions[-1]
        if addr < cur[0] + cur[1]:
            raise ValueError(f"overlapping blocks at {addr:#x}")
        merged = cm.reg_time(addr + length - cur[0], cur[0])
        separate = cm.reg_time(cur[1], cur[0]) + cm.reg_time(length, addr)
        if merged < separate:
            cur[1] = addr + length - cur[0]
        else:
            regions.append([addr, length])
    return [(a, l) for a, l in regions]


#: (reg_base, reg_per_page) with the ratio a whole number of pages and
#: every sum exact in binary floating point, so that the loop's three
#: rounded ``reg_time`` values cannot blur a tie
TIE_MODELS = [(1.0, 0.25), (3.0, 0.125), (22.0, 0.5)]


@st.composite
def block_lists(draw, overlap=False):
    """Blocks whose gaps crowd the tie of ``model``: unsorted, with
    zero-length entries, touching blocks and page-sharing neighbours."""
    base, per_page = draw(st.sampled_from(TIE_MODELS))
    cm = CostModel(reg_base=base, reg_per_page=per_page)
    tie = int(base / per_page)
    blocks, pos = [], draw(st.integers(0, 3 * cm.page_size))
    for _ in range(draw(st.integers(1, 30))):
        pages = draw(st.sampled_from([0, 0, 1, tie - 1, tie, tie, tie + 1, 3 * tie]))
        pos += pages * cm.page_size + draw(st.integers(0, cm.page_size))
        length = draw(st.sampled_from([0, 1, 4, 100, cm.page_size, 5000]))
        blocks.append((pos, length))
        pos += length
    if overlap:
        addr, length = draw(st.sampled_from([b for b in blocks]))
        blocks.append((addr + draw(st.integers(0, max(length - 1, 0))), 8))
        blocks.append((addr, max(length, 1)))
    return draw(st.permutations(blocks)), cm


class TestAgainstTheSequentialLoop:
    @given(block_lists())
    @settings(max_examples=120, deadline=None)
    def test_same_plan(self, case):
        blocks, cm = case
        want = sequential_plan(blocks, cm)
        assert plan_regions(blocks, cm) == want
        # every door takes the same list
        assert plan_regions(iter(blocks), cm) == want
        assert plan_regions(np.array(blocks).reshape(-1, 2), cm) == want

    @pytest.mark.parametrize("base, per_page", TIE_MODELS)
    def test_the_exact_tie_keeps_blocks_apart(self, base, per_page):
        cm = CostModel(reg_base=base, reg_per_page=per_page)
        tie = int(base / per_page)
        for start in (0, 5 * cm.page_size + 17):
            for pages, nregions in ((tie - 1, 1), (tie, 2), (tie + 1, 2)):
                # page-aligned ends: exactly ``pages`` whole pages between
                blocks = [
                    (start, 2 * cm.page_size - start % cm.page_size),
                    ((start // cm.page_size + 2 + pages) * cm.page_size, 64),
                ]
                plan = plan_regions(blocks, cm)
                assert plan == sequential_plan(blocks, cm)
                assert len(plan) == nregions, (pages, plan)

    @given(block_lists(overlap=True))
    @settings(max_examples=50, deadline=None)
    def test_same_overlap_error(self, case):
        blocks, cm = case
        with pytest.raises(ValueError) as want:
            sequential_plan(blocks, cm)
        with pytest.raises(ValueError) as got:
            plan_regions(blocks, cm)
        assert str(got.value) == str(want.value)

    def test_presets_on_the_benchmark_layouts(self):
        """The shipped cost models, whose ratios are not whole pages, on
        strided and irregular block lists of the hostbench sizes."""
        rng = np.random.default_rng(7)
        layouts = [
            [(i * 256, 4) for i in range(4096)],
            [(i * 16384, 128) for i in range(128)],
            [(int(s) * 8, 4) for s in rng.choice(1 << 17, 4096, replace=False)],
            [(int(s) * 4096 * 7, 100) for s in rng.choice(1 << 12, 300, replace=False)],
        ]
        for name in PRESETS:
            cm = get_preset(name)
            for blocks in layouts:
                assert plan_regions(blocks, cm) == sequential_plan(blocks, cm)


class TestGroupRegistration:
    def _node(self):
        sim = Simulator()
        fabric = Fabric(sim, CostModel.mellanox_2003())
        return sim, fabric.add_node(1 << 24)

    def test_register_and_lookup(self):
        sim, node = self._node()
        blocks = [(0, 4096), (8192, 4096)]

        def prog():
            group = yield from GroupRegistration.register(node, blocks)
            return group

        p = sim.process(prog())
        sim.run()
        group = p.value
        assert covers([(mr.addr, mr.length) for mr in group.regions], blocks)
        mr = group.mr_for(8192, 100)
        assert mr.covers(8192, 100)
        assert group.lkey_for(0, 4096) == group.mr_for(0, 10).lkey

    def test_lookup_miss_raises(self):
        sim, node = self._node()

        def prog():
            group = yield from GroupRegistration.register(node, [(0, 4096)])
            return group

        p = sim.process(prog())
        sim.run()
        with pytest.raises(KeyError):
            p.value.mr_for(1 << 20, 10)

    def test_registration_charges_time(self):
        sim, node = self._node()

        def prog():
            t0 = sim.now
            yield from GroupRegistration.register(node, [(0, 1 << 20)])
            return sim.now - t0

        p = sim.process(prog())
        sim.run()
        assert p.value == pytest.approx(node.cm.reg_time(1 << 20))

    def test_deregister_clears(self):
        sim, node = self._node()

        def prog():
            group = yield from GroupRegistration.register(node, [(0, 4096)])
            assert node.memory.registered_bytes == 4096
            yield from group.deregister(node)
            return group

        p = sim.process(prog())
        sim.run()
        assert p.value.nregions == 0
        assert node.memory.registered_bytes == 0

    def test_registered_bytes_accounts_gaps(self):
        sim, node = self._node()
        blocks = [(0, 4096), (8192, 4096)]  # small gap -> merged

        def prog():
            return (yield from GroupRegistration.register(node, blocks))

        p = sim.process(prog())
        sim.run()
        assert p.value.registered_bytes == 12288  # includes the gap page
