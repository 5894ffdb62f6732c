"""The cost-model presets the guideline rows are measured on, and the
result-cache keys of the ``presets`` row's cells, which name one of them."""

from repro.bench.parallel import Cell, cell_key
from repro.bench.sweeps import ERAS
from repro.ib.costmodel import PRESETS, CostModel, get_preset


class TestPresetRegistry:
    def test_default_lineup_registered(self):
        """Every era of the ``presets`` and ``contig`` sweeps is a preset."""
        assert len(set(ERAS)) == len(ERAS)
        assert set(ERAS) <= set(PRESETS)

    def test_every_preset_has_provenance(self):
        for name, factory in PRESETS.items():
            assert (factory.__doc__ or "").strip(), f"{name} lacks a provenance line"

    def test_get_preset_instantiates(self):
        for name, factory in PRESETS.items():
            model = get_preset(name)
            assert isinstance(model, CostModel), name
            assert model == factory(), name


def _preset_cell(era):
    return Cell("presets", f"{era}:bc-spup", 8)


class TestCacheKeyPresetAwareness:
    def test_cache_key_differs_across_presets(self):
        keys = {cell_key(_preset_cell(era)) for era in ERAS}
        assert len(keys) == len(ERAS)

    def test_cache_key_stable_for_same_preset(self):
        for era in ERAS:
            assert cell_key(_preset_cell(era)) == cell_key(_preset_cell(era))
