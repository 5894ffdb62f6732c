"""Parallel sweep executor: serial/parallel equivalence, result cache
and jobs resolution."""

import os

import pytest

from repro.bench import parallel
from repro.bench.parallel import Cell, cell_key, resolve_jobs, run_cells
from repro.bench.sweeps import SWEEPS, run_sweep


@pytest.fixture
def isolated_dirs(tmp_path, monkeypatch):
    """Per-test results + cache dirs: CSV bytes are compared between
    runs, and hit counts are asserted from an empty cache."""
    results = tmp_path / "results"
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return results, cache


def _csv_bytes(results_dir, name):
    return (results_dir / "results" / name).read_bytes()


class TestJobsResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.JOBS_ENV, raising=False)
        parallel.set_jobs(None)
        assert resolve_jobs() == 1

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "3")
        parallel.set_jobs(None)
        assert resolve_jobs() == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV, "lots")
        parallel.set_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs()


class TestCacheKey:
    def test_key_is_stable(self):
        a = Cell("fig08", "bc-spup", 8)
        assert cell_key(a) == cell_key(Cell("fig08", "bc-spup", 8))

    def test_key_separates_cells(self):
        keys = {
            cell_key(Cell("fig08", "bc-spup", 8)),
            cell_key(Cell("fig08", "bc-spup", 16)),
            cell_key(Cell("fig08", "rwg-up", 8)),
            cell_key(Cell("fig09", "bc-spup", 8)),
            cell_key(Cell("fig11", "bc-spup", 2048, (("nranks", 4),))),
            cell_key(Cell("fig11", "bc-spup", 2048, (("nranks", 8),))),
        }
        assert len(keys) == 6

    def test_a_changed_source_byte_changes_every_key(self, tmp_path, monkeypatch):
        """The key covers the code: ``repro.__version__`` never moved, so
        an edited probe used to be served its pre-edit value from
        ``.repro-cache/``.  An unchanged tree keeps every key."""
        import shutil

        cells = [
            Cell("fig08", "bc-spup", 64),
            Cell("fig11", "multi-w", 2048, (("nranks", 8),)),
            Cell("network", "generic", SWEEPS["network"].xs[0]),
            Cell("presets", "hdr_ib_2020:bc-spup", 8),
        ]
        committed = [cell_key(cell) for cell in cells]

        copy = tmp_path / "repro"
        shutil.copytree(
            parallel._SOURCES, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.setattr(parallel, "_SOURCES", copy)
        parallel.source_digest.cache_clear()
        try:
            assert [cell_key(cell) for cell in cells] == committed
            # hashed once per process: an edit mid-run is not looked for
            victim = copy / "ib" / "costmodel.py"
            victim.write_bytes(victim.read_bytes() + b"#")
            assert [cell_key(cell) for cell in cells] == committed
            parallel.source_digest.cache_clear()
            edited = [cell_key(cell) for cell in cells]
            assert all(a != b for a, b in zip(edited, committed))
            # a renamed file is a different tree too
            victim.write_bytes(victim.read_bytes()[:-1])
            victim.rename(copy / "ib" / "costmodel2.py")
            parallel.source_digest.cache_clear()
            assert cell_key(cells[0]) not in (committed[0], edited[0])
        finally:
            parallel.source_digest.cache_clear()

    def test_named_axis_points_are_keyed_apart(self):
        keys = {cell_key(Cell("network", "generic", x)) for x in SWEEPS["network"].xs}
        assert len(keys) == 3

    def test_fault_environment_changes_key(self, monkeypatch):
        cell = Cell("fig08", "bc-spup", 8)
        monkeypatch.delenv("REPRO_FAULT_PROFILE", raising=False)
        clean = cell_key(cell)
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "lossy")
        assert cell_key(cell) != clean


class TestCacheStore:
    def test_roundtrip_exact_float(self, isolated_dirs):
        cell = Cell("fig08", "bc-spup", 8)
        key = cell_key(cell)
        value = 123.45678901234567
        parallel._cache_store(key, cell, value)
        assert parallel._cache_load(key) == value

    def test_corrupt_entry_is_a_miss(self, isolated_dirs):
        cell = Cell("fig08", "bc-spup", 8)
        key = cell_key(cell)
        path = parallel._cache_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert parallel._cache_load(key) is None

    def test_cache_disabled_bypasses(self, isolated_dirs, monkeypatch):
        """``--fresh`` measures every cell and stores none."""
        calls = []
        monkeypatch.setattr(
            parallel, "evaluate_cell", lambda cell: calls.append(cell) or 1.0
        )
        cells = [Cell("fig08", "bc-spup", 8)]
        parallel.set_cache_enabled(False)
        try:
            run_cells(cells, jobs=1)
            run_cells(cells, jobs=1)
        finally:
            parallel.set_cache_enabled(None)
        assert len(calls) == 2
        _, cache = isolated_dirs
        assert not list(cache.rglob("*.json"))


class TestEquivalence:
    """-j 1, -j 4, and a warm-cache re-run must produce byte-identical CSVs."""

    GRID = (8, 64)

    def test_serial_parallel_warm_identical(self, isolated_dirs, tmp_path,
                                            monkeypatch):
        results, _cache = isolated_dirs
        parallel.STATS.reset()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-serial"))
        run_sweep("fig08", self.GRID)
        serial = _csv_bytes(results, "fig08.csv")
        assert parallel.STATS.cache_hits == 0
        assert parallel.STATS.executed == len(self.GRID) * 4

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-par"))
        parallel.STATS.reset()
        run_sweep("fig08", self.GRID)
        # same dir, same filename: the second cold run overwrites the CSV
        assert _csv_bytes(results, "fig08.csv") == serial

        # warm re-run: every cell served from cache, output still identical
        parallel.STATS.reset()
        run_sweep("fig08", self.GRID)
        assert parallel.STATS.cache_hits == parallel.STATS.cells
        assert parallel.STATS.executed == 0
        assert _csv_bytes(results, "fig08.csv") == serial

    @pytest.mark.slow
    def test_process_pool_matches_serial(self, isolated_dirs, tmp_path,
                                         monkeypatch):
        results, _cache = isolated_dirs
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-a"))
        parallel.set_jobs(None)
        run_sweep("fig08", self.GRID)
        serial = _csv_bytes(results, "fig08.csv")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-b"))
        parallel.set_jobs(4)
        try:
            parallel.STATS.reset()
            run_sweep("fig08", self.GRID)
        finally:
            parallel.set_jobs(None)
        assert parallel.STATS.executed == len(self.GRID) * 4
        assert _csv_bytes(results, "fig08.csv") == serial

    def test_ablation_row_serial_warm_pool_identical(self, isolated_dirs,
                                                     tmp_path, monkeypatch):
        """An ablation is a row like any figure: its cells enter
        ``run_cells``, so it is cached and fans out over workers too."""
        results, _cache = isolated_dirs
        csv = "ablation_registration.csv"
        parallel.set_jobs(None)
        parallel.STATS.reset()
        run_sweep("registration", (64,))
        serial = _csv_bytes(results, csv)
        assert parallel.STATS.executed == 3

        parallel.STATS.reset()
        run_sweep("registration", (64,))
        assert parallel.STATS.cache_hits == parallel.STATS.cells == 3
        assert parallel.STATS.executed == 0
        assert _csv_bytes(results, csv) == serial

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-pool"))
        parallel.set_jobs(4)
        try:
            parallel.STATS.reset()
            run_sweep("registration", (64,))
        finally:
            parallel.set_jobs(None)
        assert parallel.STATS.executed == 3
        assert _csv_bytes(results, csv) == serial
