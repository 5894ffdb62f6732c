"""The claims table against the checked-in ``results/*.csv``, the
evaluator on synthetic series, and EXPERIMENTS.md against its rendering.

Every ``results/*.csv`` regenerates byte-identically from the simulator
(CI ``cmp``s all 22), so a claim about a CSV is a claim about the
simulator and this file runs no simulation.  The same rows are evaluated
on fresh sweeps by ``benchmarks/test_claims.py``.
"""

import csv
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import claims
from repro.bench.claims import (
    BAND, CLAIMS, CROSSOVER, DOMINATES, HOLDS, IDENTICAL, INF, MISSED, OK,
    RATIO, SHIFTED, Claim, ClaimError, evaluate,
)
from repro.bench.sweeps import SWEEPS

#: the checked-in files, never ``$REPRO_RESULTS_DIR`` (which this
#: directory's conftest points at a temporary directory)
REPO = Path(__file__).parents[2]
TABLES = claims.load(REPO)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim_holds_on_the_committed_csv(claim):
    outcome = evaluate(claim, *TABLES[claim.sweep])
    assert outcome.verdict == claim.expect, outcome.message


class TestTable:
    def test_ids_are_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_sweep_that_owns_a_csv_is_claimed(self):
        """A new figure cannot land unasserted."""
        owners = {name for name, row in SWEEPS.items() if row.csv}
        assert owners == set(TABLES)

    def test_exactly_the_six_known_deviations(self):
        """... on the testbed; the preset rows add one hardware shift and
        the five known exceptions to a guideline."""
        assert [c.id for c in CLAIMS if c.expect == SHIFTED] == [
            "fig08/multi-w-large", "fig09/bc-spup-rwg-up-band",
            "fig09/multi-w-band", "fig11/rwg-up", "fig11/multi-w",
            "fig13/min-avg", "presets/gpu-rwg-up-fastest",
        ]
        assert [c.id for c in CLAIMS if c.expect == MISSED] == [
            "presets/generic-behind-manual", "presets/multi-w-behind-manual",
            "presets/hybrid-behind-manual", "presets/p-rrs-pipeline-dip",
            "contig/gpu-rendezvous-beats-eager",
        ]
        # an expected deviation says why, and how far it is
        for c in CLAIMS:
            if c.expect == SHIFTED:
                assert c.note and evaluate(c, *TABLES[c.sweep]).distance, c.id
            if c.expect == MISSED:
                assert c.note, c.id

    def test_a_sweep_opens_with_a_quote(self):
        """〃 always has a row above it to point at."""
        seen = set()
        for c in CLAIMS:
            assert c.quote or c.sweep in seen, c.id
            seen.add(c.sweep)


# ----------------------------------------------------------------------
# the evaluator, kind by kind, on series small enough to read
# ----------------------------------------------------------------------

XS = [32, 64, 128, 256]


def fig08(**ys):
    """A fig08-shaped result (latencies over XS; Generic is 100 us)."""
    return XS, {"generic": [100.0] * 4, **ys}


def claim(kind, **kw):
    kw.setdefault("series", "multi-w")
    kw.setdefault("baseline", "generic")
    return Claim("fig08/synthetic", kind, **kw)


class TestRatioAtX:
    ROW = claim(RATIO, at=256, paper=3.4, bound=(2.3, INF))

    def test_close_to_the_paper(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [90, 80, 50, 31.25]}))
        assert (o.verdict, o.measured) == (OK, "3.20× at 256 cols")
        assert o.distance == "-6% vs 3.4"

    def test_inside_the_bound_outside_the_tolerance(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [90, 80, 50, 40]}))
        assert (o.verdict, o.distance) == (SHIFTED, "-26% vs 3.4")

    def test_outside_the_bound(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [90, 80, 50, 50]}))
        assert o.verdict == MISSED
        assert o.message == (
            "❌ fig08/synthetic: 2.00× at 256 cols; "
            "min = 2 is outside (2.3, inf); "
            "distance from the paper: -41% vs 3.4 (expected ✅)"
        )

    def test_bandwidths_divide_the_other_way(self):
        row = Claim("fig09/synthetic", RATIO, "multi-w", "generic", at=64)
        o = evaluate(row, [64], {"generic": [100.0], "multi-w": [250.0]})
        assert o.measured == "2.50× at 64 cols"


class TestDominatesOverRange:
    ROW = claim(DOMINATES, over=(64, 256), bound=(1, INF))

    def test_ahead_over_the_range_only(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 80, 50, 40]}))
        assert (o.verdict, o.measured) == (OK, "1.25–2.50× over 64–256 cols")

    def test_behind_somewhere(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 80, 125, 40]}))
        assert o.verdict == MISSED
        assert "min = 0.8 is outside (1, inf)" in o.message

    def test_near_one_reads_as_a_percentage(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 99, 98, 96]}))
        assert o.measured == "+1.0% to +4.2% over 64–256 cols"

    def test_each_of_the_series_against_the_best_of_the_baselines(self):
        row = claim(
            DOMINATES, series=("rwg-up", "multi-w"),
            baseline=("generic", "bc-spup"), bound=(1, INF),
        )
        ys = {"bc-spup": [80.0] * 4, "rwg-up": [40.0] * 4, "multi-w": [64.0] * 4}
        o = evaluate(row, *fig08(**ys))
        assert o.measured == "RWG-UP 2.00×, Multi-W 1.25× over 32–256 cols"
        ys["multi-w"][1] = 90.0  # beats Generic, not BC-SPUP
        assert evaluate(row, *fig08(**ys)).verdict == MISSED


class TestBand:
    ROW = claim(
        BAND, paper={"min": 1.8, "max": 2.1, "avg": 2.0},
        bound={"min": (1.3, INF), "avg": (1.6, INF)},
    )

    def test_every_statistic_close(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [55, 50, 50, 48]}))
        assert (o.verdict, o.measured) == (
            OK, "1.82–2.08×, avg 1.98× over 32–256 cols"
        )
        assert o.distance == "min +1% vs 1.8, max -1% vs 2.1, avg -1% vs 2"

    def test_one_statistic_far(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [55, 50, 50, 36]}))
        assert o.verdict == SHIFTED and "max +32% vs 2.1" in o.distance

    def test_one_statistic_outside_its_bound(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [80, 50, 50, 48]}))
        assert o.verdict == MISSED
        assert "min = 1.25 is outside (1.3, inf)" in o.message


class TestCrossoverWithin:
    ROW = claim(CROSSOVER, over=(32, 256), paper=64, tol=1)

    def test_behind_at_the_start_ahead_later(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 125, 80, 40]}))
        assert o.verdict == OK
        assert o.measured == "0.59× at 32 cols, ahead from 128 (1.25×)"
        assert o.distance == "+1 octaves vs 64"

    def test_two_octaves_late(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 125, 110, 40]}))
        assert (o.verdict, o.distance) == (SHIFTED, "+2 octaves vs 64")

    def test_never_ahead(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [170, 125, 110, 105]}))
        assert o.verdict == MISSED and "never ahead up to 256" in o.message

    def test_ahead_from_the_start_is_no_crossover(self):
        o = evaluate(self.ROW, *fig08(**{"multi-w": [90, 80, 50, 40]}))
        assert o.verdict == MISSED
        assert "at 32 cols = 1.111 is outside (-inf, 1)" in o.message


class TestIdenticalOverRange:
    ROW = claim(
        IDENTICAL, series=("bc-spup", "rwg-up"), baseline=(),
        over=(32, 64), bound=(-INF, 0.01),
    )

    def test_to_the_digit(self):
        ys = {"bc-spup": [90, 80, 70, 60], "rwg-up": [90, 80, 50, 40]}
        o = evaluate(self.ROW, *fig08(**ys))
        assert (o.verdict, o.measured) == (
            OK, "identical to the digit over 32–64 cols"
        )

    def test_within_the_bound(self):
        ys = {"bc-spup": [90, 80, 70, 60], "rwg-up": [90, 80.4, 50, 40]}
        assert evaluate(self.ROW, *fig08(**ys)).measured.startswith("within 0.50%")

    def test_apart(self):
        ys = {"bc-spup": [90, 80, 70, 60], "rwg-up": [90, 82, 50, 40]}
        o = evaluate(self.ROW, *fig08(**ys))
        assert o.verdict == MISSED and "spread = 0.025" in o.message


class TestHolds:
    ROW = claim(
        HOLDS, series=(), baseline=(), bound=(0, 900),
        value=lambda c: max(c["generic"].values()), text="peak {v:.0f} MB/s",
    )

    def test_sentence_carries_the_value(self):
        o = evaluate(self.ROW, *fig08())
        assert (o.verdict, o.measured) == (OK, "peak 100 MB/s")

    def test_outside_the_bound(self):
        o = evaluate(self.ROW, XS, {"generic": [100.0, 950.0, 100.0, 100.0]})
        assert o.verdict == MISSED and "value = 950" in o.message


class TestLocatedErrors:
    """A row and a table that do not fit say which row and what is
    missing — as :class:`ClaimError`, at collection, never ``KeyError``."""

    def test_unknown_sweep_series_or_kind(self):
        with pytest.raises(ClaimError, match="fig99/x: 'fig99' is not a row"):
            Claim("fig99/x", RATIO, "multi-w", "generic")
        with pytest.raises(ClaimError, match="fig08/x: 'multi-v' is not a series"):
            Claim("fig08/x", RATIO, "multi-v", "generic")
        with pytest.raises(ClaimError, match="fig08/x: unknown kind 'ratio'"):
            Claim("fig08/x", "ratio", "multi-w", "generic")

    def test_missing_series(self):
        row = claim(RATIO, at=64)
        with pytest.raises(ClaimError, match="synthetic: series 'multi-w' is not"):
            evaluate(row, XS, {"generic": [100.0] * 4})

    def test_missing_x(self):
        ys = {"generic": [100.0] * 3, "multi-w": [50.0] * 3}
        with pytest.raises(ClaimError, match=r"x=256 is not on the fig08 grid"):
            evaluate(claim(RATIO, at=256), XS[:3], ys)
        with pytest.raises(ClaimError, match=r"x=256 is not on the fig08 grid"):
            evaluate(claim(DOMINATES, over=(64, 256)), XS[:3], ys)

    def test_holds_reading_a_missing_cell(self):
        row = claim(HOLDS, value=lambda c: c["multi-w"][512], text="{v}")
        with pytest.raises(ClaimError, match="synthetic: 'multi-w' is not in"):
            evaluate(row, *fig08())
        with pytest.raises(ClaimError, match="synthetic: 512 is not in"):
            evaluate(row, *fig08(**{"multi-w": [50.0] * 4}))

    def test_csv_without_a_column_or_a_line(self, tmp_path):
        (tmp_path / "results").mkdir()
        lines = (REPO / "results/fig08.csv").read_text().splitlines()
        target = tmp_path / "results/fig08.csv"
        large = next(c for c in CLAIMS if c.id == "fig08/multi-w-large")
        target.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines))
        with pytest.raises(ClaimError, match="multi-w-large: series 'multi-w'"):
            evaluate(large, *claims.read_csv("fig08", tmp_path))
        target.write_text("\n".join(lines[:-1]))
        with pytest.raises(ClaimError, match="multi-w-large: x=2048 is not on"):
            evaluate(large, *claims.read_csv("fig08", tmp_path))


# ----------------------------------------------------------------------
# a changed CSV cell turns exactly the rows that read it
# ----------------------------------------------------------------------

def scaled_copy(tmp_path, sweep, label, x, factor):
    """A results tree under ``tmp_path`` holding ``sweep``'s CSV with the
    cell ``(label, x)`` multiplied by ``factor``."""
    target = tmp_path / SWEEPS[sweep].csv
    target.parent.mkdir(exist_ok=True)
    shutil.copy(REPO / SWEEPS[sweep].csv, target)
    with open(target, newline="") as fh:
        header, *lines = csv.reader(fh)
    for line in lines:
        if line[0] == str(x):
            line[header.index(label)] = repr(float(line[header.index(label)]) * factor)
    with open(target, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *lines])
    return claims.read_csv(sweep, tmp_path)


class TestMutation:
    def test_a_slower_multi_w_at_2048_cols_fails_the_rows_that_read_it(
        self, tmp_path
    ):
        # 2.86x -> 1.91x: under the 2.3 bound
        table = scaled_copy(tmp_path, "fig08", "Multi-W", 2048, 1.5)
        failing = [
            c.id for c in CLAIMS
            if c.sweep == "fig08" and evaluate(c, *table).verdict != c.expect
        ]
        assert failing == ["fig08/multi-w-large"]
        message = evaluate(
            next(c for c in CLAIMS if c.id == failing[0]), *table
        ).message
        assert message == (
            "❌ fig08/multi-w-large: 1.91× at 2048 cols; "
            "min = 1.908 is outside (2.3, inf); "
            "distance from the paper: -44% vs 3.4 (expected 🟡)"
        )

    def test_a_datatype_send_slower_than_manual_fails_the_guideline(
        self, tmp_path
    ):
        # 53.3 us -> 90.6 us, past pack-then-send's 87.6 us + 2 %
        table = scaled_copy(tmp_path, "presets", "hdr_ib_2020:rwg-up", 512, 1.7)
        failing = [
            c.id for c in CLAIMS
            if c.sweep == "presets" and evaluate(c, *table).verdict != c.expect
        ]
        assert failing == ["presets/datatype-vs-manual"]

    def test_a_fixed_exception_is_as_loud_as_a_new_one(self, tmp_path):
        """A waiver nothing matched used to print a note; an ❌ row whose
        cells stop losing to pack-then-send fails."""
        # 63.8 us -> 60.7 us, inside pack-then-send's 62.1 us + 2 %
        table = scaled_copy(tmp_path, "presets", "gpu_kernel_pack:hybrid", 512, 0.95)
        failing = [
            c.id for c in CLAIMS
            if c.sweep == "presets" and evaluate(c, *table).verdict != c.expect
        ]
        assert failing == ["presets/hybrid-behind-manual"]
        message = evaluate(
            next(c for c in CLAIMS if c.id == failing[0]), *table
        ).message
        assert message.startswith("✅ presets/hybrid-behind-manual: ")
        assert message.endswith(" (expected ❌)")

    def test_a_cell_no_row_bounds_tightly_moves_no_verdict(self, tmp_path):
        table = scaled_copy(tmp_path, "fig08", "Multi-W", 512, 1.01)
        assert all(
            evaluate(c, *table).verdict == c.expect
            for c in CLAIMS if c.sweep == "fig08"
        )


# ----------------------------------------------------------------------
# EXPERIMENTS.md
# ----------------------------------------------------------------------

class TestExperimentsMd:
    TEXT = (REPO / "EXPERIMENTS.md").read_text()

    def test_committed_blocks_are_the_rendering(self):
        """``python -m repro.bench claims`` would change nothing: no
        stale measured number can be committed."""
        assert claims.render(self.TEXT, TABLES) == self.TEXT

    def test_every_row_is_rendered(self):
        for c in CLAIMS:
            assert self.TEXT.count(f"| `{c.id}` |") == 1, c.id

    def test_measured_numbers_come_from_the_csv(self, tmp_path):
        """Perturbing a cell changes the block that reads it and nothing
        else: the numbers in a block are computed, not typed."""
        table = scaled_copy(tmp_path, "fig12", "RWG-UP w/ segment unpack", 2048, 1.1)
        changed = claims.render(self.TEXT, {**TABLES, "fig12": table})
        before, after = self.TEXT.splitlines(), changed.splitlines()
        moved = [a for a, b in zip(after, before) if a != b]
        assert len(before) == len(after) and moved
        assert all(line.startswith("| `fig12/") for line in moved)

    def test_cli_prints_the_verdicts_and_rewrites_the_blocks(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.bench.__main__ import main as bench_main

        shutil.copytree(REPO / "results", tmp_path / "results")
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("kept\n<!-- claims:fig12 -->\nstale 9.99×\n<!-- /claims -->\n")
        monkeypatch.chdir(tmp_path)
        assert bench_main(["claims"]) == 0
        assert "🟡 fig08/multi-w-large: 2.86× at 2048 cols" in capsys.readouterr().out
        text = doc.read_text()
        assert text.startswith("kept\n") and "stale" not in text
        assert "| `fig12/segment-unpack` |" in text
        # a verdict that is not the expected one is a failing exit status
        scaled_copy(tmp_path, "fig08", "Multi-W", 2048, 1.5)
        assert bench_main(["claims"]) == 1

    def test_a_marker_without_rows_is_an_error(self):
        with pytest.raises(ClaimError, match="no claim reads any sweep of block 'fig03'"):
            claims.render("<!-- claims:fig03 -->\n<!-- /claims -->", TABLES)

    def test_rows_render_verdict_distance_and_note(self):
        text = claims.render("<!-- claims:fig08 -->\n<!-- /claims -->", TABLES)
        row = next(c for c in CLAIMS if c.id == "fig08/multi-w-large")
        assert (
            f"| `fig08/multi-w-large` | {row.quote} | 2.86× at 2048 cols "
            f"| 🟡 -16% vs 3.4 — {row.note} |"
        ) in text
        assert "| `fig08/eager-beats-generic` | ... perceivably" in text
        # a row without a quote of its own points at the one above
        fig9 = claims.render("<!-- claims:fig09 -->\n<!-- /claims -->", TABLES)
        assert "| `fig09/multi-w-large` | 〃 | 2.81× at 2048 cols | ✅ |" in fig9


def test_an_unexpected_verdict_names_its_row():
    row = replace(CLAIMS[0], expect=SHIFTED)
    message = evaluate(row, *TABLES[row.sweep]).message
    assert message.startswith("✅ fig02/quarter-of-contig: ")
    assert message.endswith(" (expected 🟡)")
