"""Selftest engine microbenchmarks: event accounting, repeats, host
profiling, and the overhead budget plumbing."""

import json

import pytest

from repro.bench.selftest import (
    DEFAULT_OVERHEAD_BUDGET,
    _check_overhead,
    engine_microbench,
    format_selftest,
)


class TestEventAccounting:
    def test_reports_rates_and_ns_per_event(self):
        report = engine_microbench()
        for name in ("pingpong", "bandwidth"):
            m = report[name]
            assert m["events"] > 0
            assert m["events_per_sec"] > 0
            assert m["ns_per_event"] == pytest.approx(
                m["wall_s"] * 1e9 / m["events"]
            )
            assert "host" not in m

    def test_counts_only_the_measured_run(self, monkeypatch):
        """Regression: events dispatched before the timed ``run()`` (here:
        synthetic setup work on the same simulator) must not inflate the
        reported event count."""
        import repro.bench.runner as runner  # where make_cluster looks it up

        baseline = engine_microbench()
        real_cluster = runner.Cluster

        class PreloadedCluster(real_cluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for _ in range(25):
                    self.sim.timeout(0.0)
                self.sim.run()
                assert self.sim.events_processed >= 25

        monkeypatch.setattr(runner, "Cluster", PreloadedCluster)
        report = engine_microbench()
        for name in ("pingpong", "bandwidth"):
            # the pre-run drains a handful of setup events the baseline
            # counts inside its measured run, so the count may dip
            # slightly — but the 25 synthetic events must never appear
            # (the old code reported the simulator's lifetime total)
            assert report[name]["events"] <= baseline[name]["events"]
            assert report[name]["events"] > baseline[name]["events"] - 25


class TestHostProfiledBench:
    def test_host_section_shape(self):
        report = engine_microbench(host_profile=True)
        for name in ("pingpong", "bandwidth"):
            host = report[name]["host"]
            assert host["closure"] >= 0.95
            assert host["events"] > 0
            nspe = host["ns_per_event"]
            assert "total" in nspe and nspe["total"] > 0
            assert "pack-unpack" in nspe
            assert "snapshot" not in report[name]
            json.dumps(host)  # ledger payload must serialize

    def test_overhead_check_passes_within_budget(self):
        report = {"engine": {
            "pingpong": {"ns_per_event": 1000.0, "host": {
                "overhead": 0.05, "ns_per_event": {"total": 1050.0}}},
        }}
        _check_overhead(report, DEFAULT_OVERHEAD_BUDGET, repeats=1)

    def test_overhead_check_retries_then_fails(self, monkeypatch):
        bad = {"engine": {
            "bandwidth": {"ns_per_event": 1000.0, "host": {
                "overhead": 0.50, "ns_per_event": {"total": 1500.0}}},
        }}
        calls = []

        def fake_retry(repeats, host_profile):
            calls.append(repeats)
            return {"bandwidth": bad["engine"]["bandwidth"]}

        monkeypatch.setattr(
            "repro.bench.selftest.engine_microbench", fake_retry
        )
        with pytest.raises(AssertionError, match="host-profiler overhead"):
            _check_overhead(bad, 0.15, repeats=3)
        assert calls == [5]  # one higher-repeat confirmation run

    def test_overhead_check_retry_can_clear(self, monkeypatch):
        bad_host = {"overhead": 0.50, "ns_per_event": {"total": 1500.0}}
        good_host = {"overhead": 0.05, "ns_per_event": {"total": 1050.0}}
        report = {"engine": {
            "bandwidth": {"ns_per_event": 1000.0, "host": dict(bad_host)},
        }}
        monkeypatch.setattr(
            "repro.bench.selftest.engine_microbench",
            lambda repeats, host_profile: {
                "bandwidth": {"ns_per_event": 1000.0, "host": good_host}
            },
        )
        _check_overhead(report, 0.15, repeats=3)  # must not raise
        # the report keeps the confirmed (clean) measurement
        assert report["engine"]["bandwidth"]["host"]["overhead"] == 0.05


class TestFormatting:
    def test_table_shows_ns_per_event_and_host_lines(self):
        report = {
            "jobs": 1,
            "engine": {
                "pingpong": {
                    "events": 1000, "wall_s": 0.01,
                    "events_per_sec": 100000.0, "ns_per_event": 10000.0,
                    "host": {
                        "events": 1000, "closure": 1.0, "overhead": 0.07,
                        "ns_per_event": {
                            "heap": 900.0, "dispatch": 800.0,
                            "callback.protocol-wait": 4000.0,
                            "pack-unpack": 2000.0, "total": 10700.0,
                        },
                    },
                },
            },
            "figures": {},
        }
        text = format_selftest(report)
        assert "10000 ns/ev" in text
        assert "host-profiled" in text
        assert "+7.0% overhead" in text
        assert "closure 100.0%" in text
        assert "callback.protocol-wait 4000" in text


class TestLedgerRecord:
    def test_selftest_record_carries_host_profile(self):
        from repro.bench.__main__ import _append_selftest_record  # noqa: F401
        from repro.obs.ledger import make_record

        record = make_record(
            "selftest",
            timestamp=1.0,
            host_profile={"bandwidth": {"ns_per_event": {"total": 9000.0}}},
        )
        assert record["host_profile"]["bandwidth"]["ns_per_event"]["total"] \
            == 9000.0

    def test_trends_chart_host_categories(self):
        from repro.obs.trends import record_metrics

        record = {
            "kind": "selftest",
            "host_profile": {
                "bandwidth": {
                    "ns_per_event": {"heap": 900.0, "total": 9000.0},
                    "closure": 1.0,
                    "overhead": 0.06,
                },
            },
        }
        flat = record_metrics(record)
        assert flat["host/bandwidth/heap"] == {
            "value": 900.0, "unit": "ns/ev", "better": "lower",
        }
        assert flat["host/bandwidth/total"]["value"] == 9000.0
