"""Regression explainer: category attribution diffs vs the baseline.

Includes the end-to-end acceptance test: an injected cost-model slowdown
(halving copy bandwidth) makes the bench gate fail AND the explainer
names ``copy`` as the moved category with a magnitude within 20% of the
analytically predicted delta, with nothing but the baseline file to go on.
"""

import json
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
    KEY = "fig08/bc-spup/cols=64"

    @pytest.fixture
    def now(self, monkeypatch):
        """Pin the fresh profile of ``KEY`` to a fabricated attribution."""
        after = {"total_us": 130.0, **{c: 0.0 for c in CATEGORIES}}
        after.update(copy=68.0, wire=32.0)
        monkeypatch.setattr(
            regress, "cell_attribution", lambda fig, scheme, cols: dict(after)
        )
        return after

    def test_non_cell_key_reported_unexplainable(self):
        (exp,) = regress.explain_regressions(
            ["engine/post_poll/events_per_sec"], {}
        )
        assert exp.reason is not None and "no critical path" in exp.reason
        assert exp.moved is None
        text = regress.format_regressions([exp])
        assert "unexplained" in text

    def test_baseline_entry_without_attribution(self, now):
        (exp,) = regress.explain_regressions(
            [self.KEY], {self.KEY: {"value": 100.0}}
        )
        assert exp.reason is not None and "--write-baseline" in exp.reason
        assert exp.total_after_us == 130.0

    def test_diff_names_biggest_mover(self, now):
        before = {"total_us": 100.0, **{c: 0.0 for c in CATEGORIES}}
        before.update(copy=40.0, wire=30.0)
        (exp,) = regress.explain_regressions(
            [self.KEY], {self.KEY: {"value": 100.0, "attribution": before}}
        )
        assert exp.reason is None
        assert exp.moved.category == "copy"
        assert exp.moved.delta_us == pytest.approx(28.0)
        assert exp.moved.pct == pytest.approx(70.0)
        text = regress.format_regressions([exp])
        assert "moved: copy +28.00 us (+70.0%)" in text
        assert "critical path 100.00 -> 130.00 us (+30.00 us)" in text


class TestGateAcceptance:
    """Issue acceptance: injected slowdown -> gate fails, explainer says
    which category moved and by how much."""

    @pytest.fixture
    def gate_env(self, tmp_path, monkeypatch):
        from repro.bench import gate

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        # one cell keeps the test fast; the machinery is identical
        monkeypatch.setattr(gate, "SCHEMES", ("bc-spup",))
        monkeypatch.setattr(gate, "COLUMNS", (64,))
        return gate

    def test_injected_copy_slowdown_is_named_with_magnitude(
        self, gate_env, tmp_path, monkeypatch, capsys
    ):
        """The reference attribution comes from the baseline file alone,
        as on a fresh clone."""
        from repro.ib.costmodel import CostModel

        gate = gate_env
        baseline = tmp_path / "baseline.json"
        explain = tmp_path / "explain.md"

        rc = gate.main(["--write-baseline", "--baseline", str(baseline)])
        assert rc == 0
        capsys.readouterr()

        # inject the slowdown: halve copy bandwidth in the cost model
        fast = CostModel.mellanox_2003()
        slow = fast.with_overrides(copy_bandwidth=fast.copy_bandwidth / 2)
        monkeypatch.setattr(
            CostModel, "mellanox_2003", classmethod(lambda cls: slow)
        )

        rc = gate.main(
            ["--baseline", str(baseline), "--explain-out", str(explain)]
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
        self, gate_env, tmp_path, monkeypatch, capsys
    ):
        gate = gate_env
        baseline = tmp_path / "baseline.json"
        explain = tmp_path / "explain.md"

        assert gate.main(
            ["--write-baseline", "--baseline", str(baseline)]
        ) == 0
        # a passing run profiles nothing: only regressed cells are
        monkeypatch.setattr(
            "repro.obs.regress.cell_attribution",
            lambda *cell: pytest.fail(f"profiled {cell} on a passing run"),
        )
        assert gate.main(
            ["--baseline", str(baseline), "--explain-out", str(explain)]
        ) == 0
        assert "benchmark gate passed" in explain.read_text()
