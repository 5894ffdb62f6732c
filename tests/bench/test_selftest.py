"""Selftest: the cold/warm figure sweeps, their cache check and report."""

import itertools

import pytest

from repro.bench import parallel, selftest
from repro.bench.selftest import format_selftest, run_selftest


@pytest.fixture
def one_figure(monkeypatch):
    monkeypatch.setattr(selftest, "SELFTEST_GRIDS", {"fig08": (8,)})


def test_grids_cover_every_csv_row_at_its_smallest_point():
    from repro.bench.sweeps import SWEEPS

    grids = selftest.SELFTEST_GRIDS
    assert len(grids) == 22 and {"presets", "contig"} <= set(grids)
    assert all(grid == (SWEEPS[name].xs[0],) for name, grid in grids.items())


class TestWarmPassCacheCheck:
    def test_every_cell_served_from_cache(self, one_figure):
        report = run_selftest(jobs=1)
        m = report["figures"]["fig08"]
        assert m["cells"] == m["executed"] == m["warm_cache_hits"] == 4
        assert set(report) == {"jobs", "figures"}

    def test_unstable_cache_key_fails_the_selftest(self, one_figure, monkeypatch):
        """A key that is not a pure function of the cell (here: a counter
        leaks into it) makes the warm pass re-measure — the selftest must
        say so instead of recording ``warm_cache_hits: 0``."""
        real_key = parallel.cell_key
        calls = itertools.count()
        monkeypatch.setattr(
            parallel, "cell_key", lambda cell: f"{next(calls):02d}{real_key(cell)}"
        )
        with pytest.raises(AssertionError, match="warm pass served 0 of 4"):
            run_selftest(jobs=1)


class TestFormatting:
    def test_table_has_one_row_per_figure_and_no_host_lines(self):
        report = {
            "jobs": 1,
            "figures": {
                "fig08": {
                    "cells": 8, "executed": 8, "cold_wall_s": 0.25,
                    "warm_wall_s": 0.004, "warm_cache_hits": 8,
                    "cells_per_sec": 32.0,
                },
            },
        }
        text = format_selftest(report)
        assert "fig08" in text and "250.0" in text and "32.00" in text
        assert "ns/ev" not in text and "kev/s" not in text
