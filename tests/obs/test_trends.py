"""Trends CLI over a directory of committed hostbench reports."""

import json
from pathlib import Path

import pytest

from repro.obs import trends


def write_report(directory, name, workloads):
    """A file in the shape ``hostbench/run.py --out`` writes:
    ``workloads`` is ``{workload: {metric: (value, unit)}}``."""
    (directory / name).write_text(json.dumps({"workloads": {
        workload: {
            "workload": workload, "seed": 0,
            "metrics": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in metrics.items()
            },
        }
        for workload, metrics in workloads.items()
    }}) + "\n")


@pytest.fixture
def history(tmp_path, monkeypatch):
    """PRs 9 and 10 (10 also has a traced report and a metric 9 lacks),
    beside a ``BENCHMARK.json`` that declares the directions."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [
            {"name": "host_us_per_msg", "unit": "us", "better": "lower"},
            {"name": "delivered_share", "unit": "share", "better": "higher"},
        ],
        "per_layer": [
            {"name": "simulator.run_share", "unit": "share", "better": "higher"},
        ],
    }))
    directory = tmp_path / "benchmarks" / "history"
    directory.mkdir(parents=True)
    write_report(directory, "BENCH_9.json", {
        "stream_copy": {"host_us_per_msg": (100.0, "us")},
        "pingpong_latency": {"host_us_per_msg": (50.0, "us")},
    })
    write_report(directory, "BENCH_10.json", {
        "stream_copy": {
            "host_us_per_msg": (120.0, "us"),
            "delivered_share": (1.0, "share"),
        },
        "pingpong_latency": {"host_us_per_msg": (50.0, "us")},
    })
    write_report(directory, "BENCH_10-trace.json", {
        "stream_copy": {"simulator.run_share": (0.75, "share")},
    })
    return directory


class TestSparkline:
    def test_empty(self):
        assert trends.sparkline([]) == ""

    def test_flat_series_is_mid_bar(self):
        assert trends.sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_monotone_ramps_low_to_high(self):
        s = trends.sparkline([1, 2, 3, 4])
        assert s[0] == "▁" and s[-1] == "█" and len(s) == 4


class TestReadHistory:
    def test_numeric_order_and_trace_merged_under_the_same_pr(self, history):
        points = trends.read_history(history)
        # BENCH_10 sorts before BENCH_9 as a string; 10-trace is PR 10 too
        assert [n for n, _metrics in points] == [9, 10]
        assert points[1][1]["stream_copy/simulator.run_share"] == {
            "value": 0.75, "unit": "share",
        }
        assert points[1][1]["stream_copy/host_us_per_msg"]["value"] == 120.0

    def test_truncated_or_foreign_file_is_skipped_and_named(
        self, history, capsys
    ):
        whole = (history / "BENCH_10.json").read_text()
        (history / "BENCH_11.json").write_text(whole[: len(whole) // 2])
        # JSON, but not a hostbench report
        (history / "BENCH_12.json").write_text(
            json.dumps({"metrics": {"fig08/bc-spup/cols=64": {"value": 1.0}}})
        )
        (history / "BENCH_13.json").write_text("[1, 2]")
        (history / "BENCH_notes.json").write_text("{}")  # not a report name
        assert [n for n, _metrics in trends.read_history(history)] == [9, 10]
        err = capsys.readouterr().err
        for n in (11, 12, 13):
            assert f"BENCH_{n}.json: not a hostbench report" in err
        assert "BENCH_notes" not in err and "BENCH_10" not in err


class TestFormatTrends:
    def test_two_record_trajectory_with_delta(self, history):
        text = trends.format_trends(trends.read_history(history))
        assert "perf trends — 2 committed report(s), PR 9 .. PR 10" in text
        assert "stream_copy/host_us_per_msg  (us)" in text
        assert "+20.0%" in text  # 100 -> 120
        assert "▁█" in text

    def test_last_window_truncates(self, history):
        text = trends.format_trends(trends.read_history(history), last=1)
        # only the newest row survives, so no delta column value
        assert "100.00" not in text and "120.00" in text

    def test_metric_missing_from_an_older_report_leaves_a_gap(self, history):
        text = trends.format_trends(
            trends.read_history(history), ["stream_copy/delivered_share"]
        )
        rows = [line.split() for line in text.splitlines()[5:]]
        assert rows == [["10", "1.00"]]  # no PR 9 row, no delta, no crash


class TestRunTrends:
    def test_empty_directory_exits_zero_with_a_one_line_hint(self, tmp_path):
        for directory in (tmp_path, tmp_path / "absent"):
            out = []
            assert trends.run_trends(directory, print_fn=out.append) == 0
            assert len(out) == 1 and "\n" not in out[0]
            assert "hostbench/run.py --workload all" in out[0]

    def test_direction_comes_from_benchmark_json(self, history):
        out = []
        assert trends.run_trends(history, print_fn=out.append) == 0
        text = "\n".join(out)
        assert "stream_copy/host_us_per_msg  (us, lower is better)" in text
        assert "stream_copy/delivered_share  (share, higher is better)" in text
        assert "stream_copy/simulator.run_share  (share, higher is better)" in text
        # the declaration is the only source: flip it and the text follows
        spec = json.loads((history.parents[1] / "BENCHMARK.json").read_text())
        spec["end_to_end"][0]["better"] = "higher"
        (history.parents[1] / "BENCHMARK.json").write_text(json.dumps(spec))
        out = []
        trends.run_trends(history, print_fn=out.append)
        assert "host_us_per_msg  (us, higher is better)" in "\n".join(out)

    def test_metric_filter(self, history):
        out = []
        rc = trends.run_trends(
            history, patterns=["stream_copy/*"], print_fn=out.append
        )
        assert rc == 0
        text = "\n".join(out)
        assert "stream_copy/host_us_per_msg" in text
        assert "stream_copy/simulator.run_share" in text
        assert "pingpong_latency" not in text

    def test_filter_with_no_match_still_exits_zero(self, history):
        out = []
        rc = trends.run_trends(history, patterns=["nope/*"], print_fn=out.append)
        assert rc == 0
        assert "no committed metrics match" in out[0]

    def test_cli_entrypoint(self, history, capsys):
        from repro.obs.__main__ import main

        # the default directory is relative to the working directory
        assert main(["trends", "--last", "5"]) == 0
        assert "PR 9 .. PR 10" in capsys.readouterr().out
        assert main(["trends", "--history", str(history), "--metric",
                     "pingpong_latency/*"]) == 0
        out = capsys.readouterr().out
        assert "pingpong_latency/host_us_per_msg" in out
        assert "stream_copy" not in out


def test_the_committed_history_reads_end_to_end():
    """``git clone && python -m repro.obs trends``: every committed
    report parses, and every workload x end-to-end metric of
    ``BENCHMARK.json`` has a value in each of them."""
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {
        f"{workload['name']}/{metric['name']}"
        for workload in spec["workloads"]
        for metric in spec["end_to_end"]
    }
    points = trends.read_history(root / trends.HISTORY)
    assert [n for n, _metrics in points][:2] == [11, 12]
    for n, metrics in points:
        assert wanted <= set(metrics), (n, sorted(wanted - set(metrics)))


def test_the_newest_report_agrees_with_the_exact_golden():
    """The event-count pins and the committed report are regenerated by
    different commands; a PR that moves one must move the other.  Every
    cell of ``tests/golden/hostbench_exact.json`` (all of ``stream_copy``,
    the ``--quick`` cells of the rest) is in the full report, with the
    same ``events`` and ``repr(sim_us)``.  No simulation."""
    import re

    root = Path(__file__).resolve().parents[2]
    reports = {
        int(m.group(1)): path
        for path in (root / trends.HISTORY).glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    }
    newest = reports[max(reports)]
    report = json.loads(newest.read_text())["workloads"]
    golden = json.loads(
        (root / "tests" / "golden" / "hostbench_exact.json").read_text()
    )
    for key, pinned in golden.items():
        workload, cell = key.split("/", 1)
        got = report[workload]["cells"][cell]
        assert [got["events"], repr(got["sim_us"])] == pinned, (newest.name, key)
