"""Regression explainer: category attribution diffs vs the ledger.

Includes the end-to-end acceptance test: an injected cost-model slowdown
(halving copy bandwidth) makes the bench gate fail AND the explainer
names ``copy`` as the moved category with a magnitude within 20% of the
analytically predicted delta.
"""

import re

import pytest

from repro.obs import regress
from repro.obs.profile import CATEGORIES


class TestParseMetricKey:
    def test_sweep_cell_key(self):
        assert regress.parse_metric_key("fig08/bc-spup/cols=64") == (
            "fig08",
            "bc-spup",
            64,
        )

    def test_non_cell_keys_return_none(self):
        for key in (
            "engine/post_poll/events_per_sec",
            "selftest/fig08/cells_per_sec",
            "fig08/bc-spup",
            "fig08/bc-spup/cols=x",
        ):
            assert regress.parse_metric_key(key) is None


class TestCellAttribution:
    def test_categories_present_and_copy_dominates(self):
        attr = regress.cell_attribution("fig08", "bc-spup", 64)
        assert attr["total_us"] > 0
        for cat in CATEGORIES:
            assert cat in attr
        # a 32 KB pack-based transfer is copy-dominated on this model
        assert attr["copy"] == max(attr[cat] for cat in CATEGORIES)

    def test_collect_skips_unparseable_keys(self):
        out = regress.collect_attributions(
            ["fig08/bc-spup/cols=64", "engine/post_poll/events_per_sec"]
        )
        assert list(out) == ["fig08/bc-spup/cols=64"]


class TestExplainRegressions:
    def test_non_cell_key_reported_unexplainable(self):
        (exp,) = regress.explain_regressions(
            ["engine/post_poll/events_per_sec"], {}, None
        )
        assert exp.reason is not None and "no critical path" in exp.reason
        assert exp.moved is None
        text = regress.format_regressions([exp])
        assert "unexplained" in text

    def test_no_last_good_record(self):
        (exp,) = regress.explain_regressions(
            ["fig08/bc-spup/cols=64"],
            {"fig08/bc-spup/cols=64": {"total_us": 10.0}},
            None,
        )
        assert exp.reason is not None and "last-good" in exp.reason

    def test_diff_names_biggest_mover(self):
        key = "fig08/bc-spup/cols=64"
        before = {"total_us": 100.0, **{c: 0.0 for c in CATEGORIES}}
        before.update(copy=40.0, wire=30.0)
        after = {"total_us": 130.0, **{c: 0.0 for c in CATEGORIES}}
        after.update(copy=68.0, wire=32.0)
        (exp,) = regress.explain_regressions(
            [key], {key: after}, {"attribution": {key: before}}
        )
        assert exp.reason is None
        assert exp.moved.category == "copy"
        assert exp.moved.delta_us == pytest.approx(28.0)
        assert exp.moved.pct == pytest.approx(70.0)
        text = regress.format_regressions(
            [exp], {"sha": "a" * 40, "version": "1.0"}
        )
        assert "moved: copy +28.00 us (+70.0%)" in text
        assert "critical path 100.00 -> 130.00 us (+30.00 us)" in text


class TestGateAcceptance:
    """Issue acceptance: injected slowdown -> gate fails, explainer says
    which category moved and by how much."""

    @pytest.fixture
    def gate_env(self, tmp_path, monkeypatch):
        from repro.bench import gate

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_GIT_SHA", "c" * 40)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        # one cell keeps the test fast; the machinery is identical
        monkeypatch.setattr(gate, "SCHEMES", ("bc-spup",))
        monkeypatch.setattr(gate, "COLUMNS", (64,))
        return gate

    def test_injected_copy_slowdown_is_named_with_magnitude(
        self, gate_env, tmp_path, monkeypatch, capsys
    ):
        from repro.ib.costmodel import CostModel

        gate = gate_env
        baseline = tmp_path / "baseline.json"
        explain = tmp_path / "explain.md"

        rc = gate.main(
            ["--write-baseline", "--baseline", str(baseline), "--no-engine"]
        )
        assert rc == 0
        capsys.readouterr()

        # inject the slowdown: halve copy bandwidth in the cost model
        fast = CostModel.mellanox_2003()
        slow = fast.with_overrides(copy_bandwidth=fast.copy_bandwidth / 2)
        monkeypatch.setattr(
            CostModel, "mellanox_2003", classmethod(lambda cls: slow)
        )

        rc = gate.main(
            [
                "--baseline", str(baseline),
                "--no-engine",
                "--explain-out", str(explain),
            ]
        )
        assert rc == 1  # the gate fails...
        err = capsys.readouterr().err
        assert "benchmark regressions" in err
        assert "moved: copy" in err  # ...and the explainer names copy

        body = explain.read_text()
        assert body.startswith("# benchmark regressions")
        m = re.search(r"moved: copy \+([0-9.]+) us", body)
        assert m, body
        reported_delta = float(m.group(1))

        # independent magnitude check: halving copy bandwidth adds
        # nbytes/bw per copy pass; pack + unpack both sit on the
        # critical path of this 32 KB bc-spup transfer
        nbytes = 64 * 512
        predicted = 2 * nbytes / fast.copy_bandwidth
        assert abs(reported_delta - predicted) / predicted < 0.20

    def test_passing_gate_writes_clean_explanation(
        self, gate_env, tmp_path, capsys
    ):
        gate = gate_env
        baseline = tmp_path / "baseline.json"
        explain = tmp_path / "explain.md"

        assert gate.main(
            ["--write-baseline", "--baseline", str(baseline), "--no-engine"]
        ) == 0
        assert gate.main(
            [
                "--baseline", str(baseline),
                "--no-engine",
                "--explain-out", str(explain),
            ]
        ) == 0
        assert "benchmark gate passed" in explain.read_text()

    def test_gate_ledger_trajectory_feeds_trends(
        self, gate_env, tmp_path, capsys
    ):
        from repro.obs import ledger, trends

        gate = gate_env
        baseline = tmp_path / "baseline.json"
        assert gate.main(
            ["--write-baseline", "--baseline", str(baseline), "--no-engine"]
        ) == 0
        assert gate.main(["--baseline", str(baseline), "--no-engine"]) == 0

        records = ledger.read_ledger(kind="gate")
        assert [r["status"] for r in records] == ["baseline", "pass"]
        assert all("attribution" in r for r in records)
        # two records are enough for a rendered trajectory
        out = []
        assert trends.run_trends(print_fn=out.append) == 0
        text = "\n".join(out)
        assert "2 ledger record(s)" in text
        assert "fig08/bc-spup/cols=64" in text


class TestEngineKeyHostExplanation:
    """Regressed engine/* throughput keys are explained by diffing the
    host-time profile instead of the (nonexistent) simulated path."""

    def host(self, **overrides):
        from repro.obs.hostprof import HOST_CATEGORIES

        nspe = {cat: 100.0 for cat in HOST_CATEGORIES}
        nspe.update(overrides)
        nspe["total"] = sum(nspe.values())
        return {"ns_per_event": nspe, "closure": 1.0, "overhead": 0.06}

    def test_names_moved_host_category(self):
        key = "engine/bandwidth/events_per_sec"
        before = {"bandwidth": self.host()}
        after = {"bandwidth": self.host(**{"pack-unpack": 2100.0})}
        (exp,) = regress.explain_regressions(
            [key], {},
            {"attribution": {}, "host_profile": before},
            host_now=after,
        )
        assert exp.reason is None
        assert exp.unit == "ns/ev"
        assert exp.moved.category == "pack-unpack"
        assert exp.moved.delta_us == pytest.approx(2000.0)
        text = regress.format_regressions([exp])
        assert "host time" in text
        assert "moved: pack-unpack +2000.00 ns/ev" in text

    def test_without_current_host_data_stays_unexplained(self):
        (exp,) = regress.explain_regressions(
            ["engine/bandwidth/events_per_sec"], {},
            {"attribution": {}, "host_profile": {"bandwidth": self.host()}},
        )
        assert exp.reason is not None and "no critical path" in exp.reason

    def test_without_last_good_host_profile(self):
        (exp,) = regress.explain_regressions(
            ["engine/bandwidth/events_per_sec"], {},
            {"attribution": {}},
            host_now={"bandwidth": self.host()},
        )
        assert exp.reason is not None
        assert "no last-good host profile" in exp.reason

    def test_engineered_pack_slowdown_is_named(self, monkeypatch):
        """Issue acceptance: slow the real pack/unpack byte movement and
        the explainer names ``pack-unpack`` as the moved host category.

        No wall clock: the profiler reads an injected clock that ticks
        100 ns a read, and the slowdown is 500 us added to that clock in
        the one block-copy entry point every pack and unpack goes through.
        """
        from repro.bench.workloads import column_vector
        from repro.ib.memory import NodeMemory
        from repro.obs.hostprof import hostprof_transfer

        class Clock:
            now = 0

            def __call__(self):
                self.now += 100
                return self.now

        clock = Clock()
        monkeypatch.setattr("repro.mpi.world.perf_counter_ns", clock)
        dt = column_vector(64).datatype

        def profile():
            hp, _cluster = hostprof_transfer(
                "bc-spup", dt, iters=3, duty=(1, 0)
            )
            return {
                "bandwidth": {
                    "ns_per_event": hp.ns_per_event(),
                    "closure": hp.closure(),
                    "overhead": 0.0,
                }
            }

        before = profile()

        real_copy = NodeMemory.copy_blocks

        def slow_copy(self, *args, **kwargs):
            clock.now += 500_000
            return real_copy(self, *args, **kwargs)

        monkeypatch.setattr(NodeMemory, "copy_blocks", slow_copy)
        after = profile()

        key = "engine/bandwidth/events_per_sec"
        (exp,) = regress.explain_regressions(
            [key], {},
            {"attribution": {}, "host_profile": before},
            host_now=after,
        )
        assert exp.reason is None
        assert exp.moved.category == "pack-unpack", (
            regress.format_regressions([exp])
        )
        assert exp.moved.delta_us > 0
