"""Trends CLI over the run ledger."""

import pytest

from repro.obs import ledger, trends


def _record(i, value, status="pass"):
    return ledger.make_record(
        "gate",
        timestamp=1700000000.0 + i * 3600,
        sha=f"{i:040x}",
        status=status,
        metrics={
            "fig08/bc-spup/cols=64": {
                "value": value, "unit": "us", "better": "lower",
            }
        },
    )


@pytest.fixture
def two_records(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
    ledger.append_record(_record(0, 100.0))
    ledger.append_record(_record(1, 120.0))
    return tmp_path / "ledger.jsonl"


class TestSparkline:
    def test_empty(self):
        assert trends.sparkline([]) == ""

    def test_flat_series_is_mid_bar(self):
        assert trends.sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_monotone_ramps_low_to_high(self):
        s = trends.sparkline([1, 2, 3, 4])
        assert s[0] == "▁" and s[-1] == "█" and len(s) == 4


class TestRecordMetrics:
    def test_ignores_malformed_entries(self):
        rec = {"metrics": {"a": 3, "b": {"novalue": 1}, "c": {"value": 2}}}
        assert list(trends.record_metrics(rec)) == ["c"]

    def test_fields_of_older_records_are_ignored(self):
        """Ledger lines written before the gate stopped recording engine
        throughput, host profiles and attributions still read: their
        ``metrics`` chart, the dropped sections are skipped."""
        rec = dict(
            _record(0, 42.0),
            events_per_sec={"pp": 1e6},
            host_profile={"pp": {"ns_per_event": {"heap": 900.0}}},
            attribution={"fig08/bc-spup/cols=64": {"total_us": 1.0}},
        )
        assert list(trends.record_metrics(rec)) == ["fig08/bc-spup/cols=64"]
        assert trends.record_metrics({"events_per_sec": {"pp": 1e6}}) == {}


class TestFormatTrends:
    def test_two_record_trajectory_with_delta(self, two_records):
        records = ledger.read_ledger(two_records)
        text = trends.format_trends(records)
        assert "perf trends — 2 ledger record(s)" in text
        assert "fig08/bc-spup/cols=64" in text
        assert "+20.0%" in text  # 100 -> 120
        assert "▁█" in text

    def test_last_window_truncates(self, two_records):
        records = ledger.read_ledger(two_records)
        text = trends.format_trends(records, last=1)
        # only the newest row survives, so no delta column value
        assert "100.00" not in text and "120.00" in text


class TestRunTrends:
    def test_empty_ledger_exits_zero_with_message(self, tmp_path):
        out = []
        rc = trends.run_trends(tmp_path / "missing.jsonl", print_fn=out.append)
        assert rc == 0
        assert "ledger is empty" in out[0]

    def test_metric_filter(self, two_records):
        out = []
        ledger.append_record(ledger.make_record(
            "selftest", timestamp=1700007200.0,
            metrics={"selftest/fig08/cells_per_sec": {"value": 30.0}},
        ))
        rc = trends.run_trends(
            two_records, patterns=["selftest/*"], print_fn=out.append
        )
        assert rc == 0
        text = "\n".join(out)
        assert "selftest/fig08/cells_per_sec" in text
        assert "fig08/bc-spup/cols=64" not in text

    def test_filter_with_no_match_still_exits_zero(self, two_records):
        out = []
        rc = trends.run_trends(
            two_records, patterns=["nope/*"], print_fn=out.append
        )
        assert rc == 0
        assert "no ledger metrics match" in out[0]

    def test_cli_entrypoint(self, two_records, capsys):
        from repro.obs.__main__ import main

        rc = main(["trends", "--ledger", str(two_records), "--last", "5"])
        assert rc == 0
        assert "perf trends" in capsys.readouterr().out
