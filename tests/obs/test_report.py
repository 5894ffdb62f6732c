"""Report module + CLI tests, including the overlap regression check."""

import json

import pytest

from repro.bench.runner import traced_oneway
from repro.bench.workloads import workload_for
from repro.obs.report import (
    DEFAULT_SCHEMES,
    SchemeBreakdown,
    breakdown,
    format_table,
    run_report,
)


def measured(scheme, dt):
    """One traced transfer read as a report row, and its cluster."""
    result = traced_oneway(scheme, dt)
    return breakdown(result), result.cluster


class TestWorkloadFor:
    def test_fig09_column_count(self):
        wl = workload_for("fig09", 65536)
        assert wl.nbytes == 65536  # 128 columns of 512 bytes

    def test_small_size_floors_at_one_column(self):
        assert workload_for("fig09", 100).nbytes == 512

    def test_fig11_struct(self):
        wl = workload_for("fig11", 1024)
        assert wl.nbytes >= 1024

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            workload_for("fig99", 1024)


class TestBreakdown:
    def test_bcspup_breakdown(self):
        wl = workload_for("fig09", 65536)
        b, cluster = measured("bc-spup", wl.datatype)
        assert b.scheme == "bc-spup"
        assert b.nbytes == 65536
        assert b.copy_us > 0
        assert b.wire_us > 0
        assert b.overlap_us > 0  # the pipelining scheme must hide some copy
        assert 0 < b.overlap_pct <= 100
        assert b.descriptors > 0
        # the cluster is returned for export: tracer + metrics populated
        assert cluster.tracer.records
        assert cluster.metrics.value("ib.descriptors") == b.descriptors

    def test_multiw_zero_copy(self):
        wl = workload_for("fig09", 65536)
        b, _cluster = measured("multi-w", wl.datatype)
        assert b.copy_us == 0.0  # zero-copy scheme: no pack/unpack
        assert b.reg_us > 0  # ... but registration on both sides

    def test_overlap_matches_legacy_sweep(self):
        """Regression: the merged-interval overlap equals the raw
        per-record interval walk on the fig09 workload (whose same-category
        intervals never coincide, so merging changes nothing)."""
        wl = workload_for("fig09", 65536)
        for scheme in ("bc-spup", "rwg-up", "generic"):
            b, cluster = measured(scheme, wl.datatype)
            tracer = cluster.tracer
            legacy_pack = _legacy_cross_overlap(tracer, "pack", 0, "wire", 0)
            legacy_unpack = _legacy_cross_overlap(
                tracer, "unpack", 1, "wire", 0
            )
            assert b.overlap_us == pytest.approx(legacy_pack + legacy_unpack)


def _legacy_cross_overlap(tracer, cat_a, node_a, cat_b, node_b) -> float:
    """The pre-refactor interval walk from bench/overlap.py."""
    a = sorted((r.start, r.end) for r in tracer.iter_category(cat_a, node_a))
    b = sorted((r.start, r.end) for r in tracer.iter_category(cat_b, node_b))
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


class TestRunReport:
    def test_prints_table_with_required_columns(self):
        lines = []
        rows = run_report(
            workload="fig09",
            sizes=[4096],
            schemes=["generic", "bc-spup"],
            print_fn=lines.append,
        )
        assert len(rows) == 2
        text = "\n".join(lines)
        for col in ("copy_us", "wire_us", "overlap%", "reg_us", "descr"):
            assert col in text
        assert "generic" in text and "bc-spup" in text

    def test_exports(self, tmp_path):
        chrome = str(tmp_path / "trace")
        metrics = str(tmp_path / "metrics.csv")
        run_report(
            workload="fig09",
            sizes=[4096],
            schemes=["bc-spup"],
            chrome_out=chrome,
            metrics_out=metrics,
            print_fn=lambda _s: None,
        )
        doc = json.loads(open(f"{chrome}.bc-spup.4096.json").read())
        # one pid per simulated node (acceptance criterion)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        assert open(metrics).readline().startswith("type,name,node,value")

    def test_format_table_alignment(self):
        row = SchemeBreakdown("bc-spup", 1024, 10.0, 5.0, 4.0, 2.0, 1.0, 7)
        table = format_table([row])
        assert "bc-spup" in table
        assert "40.0%" in table  # 2.0 / 5.0 hidden


class TestCLI:
    def test_acceptance_invocation(self, capsys):
        from repro.obs.__main__ import main

        rc = main(["report", "--workload", "fig09", "--sizes", "65536"])
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in DEFAULT_SCHEMES:
            assert scheme in out
        for col in ("copy_us", "wire_us", "overlap%", "reg_us"):
            assert col in out

    def test_requires_subcommand(self):
        from repro.obs.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestHealthSection:
    def test_health_counters_filters_fault_names(self):
        from repro.simulator.metrics import MetricsRegistry
        from repro.obs.report import format_health, health_counters

        m = MetricsRegistry()
        m.counter("faults.injected", node=0).inc(3)
        m.counter("qp.recoveries", node=1).inc(1)
        m.counter("rndv.timeouts").inc(2)
        m.counter("ib.descriptors").inc(99)  # not a health counter
        totals = health_counters(m)
        assert totals == {
            "faults.injected": 3,
            "qp.recoveries": 1,
            "rndv.timeouts": 2,
        }
        table = format_health(totals)
        assert "health (fault injection active)" in table
        assert "faults.injected" in table and "99" not in table

    def test_fault_free_run_has_no_health_section(self, capsys):
        run_report(workload="fig09", sizes=[4096], schemes=["bc-spup"])
        out = capsys.readouterr().out
        assert "health" not in out

    def test_lossy_profile_prints_health(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "lossy")
        monkeypatch.setenv("REPRO_FAULT_SEED", "1")  # injects on this workload
        run_report(
            workload="fig09", sizes=[262144], schemes=["bc-spup", "rwg-up"]
        )
        out = capsys.readouterr().out
        assert "health (fault injection active)" in out
        assert "faults." in out
