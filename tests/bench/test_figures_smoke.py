"""Smoke tests for the sweep table on tiny parameter sets.

The full sweeps run under benchmarks/ (and what they must show is the
claims table, ``test_claims.py``); here we only verify the harness
machinery: custom grids, CSV output, and the CLI
plumbing.
"""

import pytest

from repro.bench import parallel
from repro.bench.__main__ import main as bench_main
from repro.bench.sweeps import run_sweep

# timing anchors are meaningless under fault injection
pytestmark = pytest.mark.faultfree


class TestTinySweeps:
    def test_fig08_custom_columns(self):
        cols, out = run_sweep("fig08", (8, 64))
        assert cols == [8, 64]
        for series in out.values():
            assert len(series.y) == 2
            assert all(v > 0 for v in series.y)

    def test_fig14_custom_columns(self):
        cols, out = run_sweep("fig14", (16, 128))
        assert cols == [16, 128]

    def test_csv_written(self, bench_results_dir):
        run_sweep("fig08", (8, 64))
        # redirected by REPRO_RESULTS_DIR — never the checked-in results/
        assert (bench_results_dir / "results" / "fig08.csv").exists()

    def test_repeated_sweep_prints_and_writes_again(self, bench_results_dir,
                                                    capsys):
        """The on-disk cell cache is the only cache: a repeat re-reads it
        and still prints its table and rewrites its CSV."""
        csv = bench_results_dir / "results" / "fig08.csv"
        run_sweep("fig08", (8, 64))
        first = csv.read_bytes()
        csv.unlink()
        capsys.readouterr()
        run_sweep("fig08", (8, 64))
        assert "Figure 8" in capsys.readouterr().out
        assert csv.read_bytes() == first

    def test_a_unit_per_series_prints_a_table_per_unit(self, capsys):
        run_sweep("segment-size", (131072,))
        out = capsys.readouterr().out
        assert "latency (us)" in out and "bandwidth (MB/s)" in out
        assert out.count("segment (B)") == 2


class TestCli:
    def test_cli_runs_figure_with_cols(self, capsys):
        rc = bench_main(["fig08", "--cols", "4", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out

    def test_cli_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            bench_main(["fig99"])

    @pytest.mark.parametrize(
        "target,axis",
        [("fig11", "last_block_ints"), ("segment-size", "segment_bytes"),
         ("network", "preset"), ("window", "window")],
    )
    def test_cols_on_a_named_non_column_row_is_an_error(self, target, axis,
                                                        capsys):
        """``--cols`` used to be accepted and ignored here (``segment-size
        --cols 8`` printed the 512 KB, cols = 1024 table)."""
        with pytest.raises(SystemExit) as exc:
            bench_main([target, "--cols", "8"])
        assert exc.value.code == 2
        assert axis in capsys.readouterr().err

    def test_cols_restricts_an_ablation_row(self, bench_results_dir, capsys):
        assert bench_main(["prrs", "--cols", "8"]) == 0
        csv = bench_results_dir / "results" / "ablation_prrs.csv"
        header, *rows = csv.read_text().splitlines()
        assert header == "cols,RWG-UP,P-RRS"
        assert len(rows) == 1 and rows[0].startswith("8,")

    @pytest.fixture
    def ran(self, monkeypatch):
        """``{row: xs}`` of every sweep the CLI starts, none of them run."""
        ran = {}

        def fake_run_sweep(name, xs=None):
            ran[name] = xs
            return [], {}

        monkeypatch.setattr("repro.bench.__main__.run_sweep", fake_run_sweep)
        monkeypatch.setattr("repro.bench.__main__._run_overlap", lambda: None)
        return ran

    def test_group_target_restricts_only_its_column_rows(self, ran):
        assert bench_main(["ablations", "--cols", "8"]) == 0
        assert len(ran) == 9
        assert ran["prrs"] == [8] and ran["eager-threshold"] == [8]
        assert ran["network"] is None and ran["segment-size"] is None

    def test_all_includes_skampi(self, ran):
        assert bench_main(["all"]) == 0
        assert len(ran) == 22 and {"presets", "contig"} <= set(ran)
        assert {"skampi", "eager-rdma", "io-strategies", "rma"} <= set(ran)

    def test_jobs_and_fresh_reach_an_ablation_row(self, tmp_path, monkeypatch,
                                                  capsys):
        """``-j`` and ``--fresh`` used to be accepted and ignored for every
        ablation target, which never entered ``run_cells``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        seen = []
        real = parallel.run_cells

        def spy(cells, jobs=None):
            seen.append((parallel.resolve_jobs(jobs), parallel.cache_enabled()))
            return real(cells, jobs)

        monkeypatch.setattr("repro.bench.sweeps.run_cells", spy)
        try:
            argv = ["dtcache", "--cols", "8"]
            assert bench_main(argv) == 0
            parallel.STATS.reset()
            assert bench_main(argv + ["-j", "2", "--fresh"]) == 0
        finally:
            parallel.set_jobs(None)
            parallel.set_cache_enabled(None)
        assert seen == [(1, True), (2, False)]
        # --fresh re-measured both cells although the first run cached them
        assert parallel.STATS.executed == 2 and parallel.STATS.cache_hits == 0
