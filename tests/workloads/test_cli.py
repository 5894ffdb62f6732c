"""``python -m repro.workloads`` surface."""

from pathlib import Path

import pytest

from repro.workloads.__main__ import main
from repro.workloads.library import library_dir
from repro.workloads.patterns import pattern_names

CORPUS = (
    Path(__file__).resolve().parent / "corpus" / "eager_rndv_overtake.json"
)


@pytest.fixture(autouse=True)
def sandbox(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_list_prints_library(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "halo_exchange_2d" in out


def test_validate_ok_and_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(CORPUS)]) == 0
    assert main(["validate", str(CORPUS), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out


def test_replay_reports_simulated_time(capsys):
    assert main(["replay", str(CORPUS), "--scheme", "generic"]) == 0
    out = capsys.readouterr().out
    assert "eager_rndv_overtake" in out
    assert "scheme=generic" in out
    assert "us" in out


@pytest.mark.faultfree  # the library files are fault-free recordings
@pytest.mark.parametrize("name", pattern_names())
def test_record_writes_trace(name, tmp_path, capsys):
    """A fresh recording is the checked-in library file, byte for byte."""
    out_path = tmp_path / "t.json"
    assert main(["record", name, "-o", str(out_path)]) == 0
    assert out_path.read_text() == (library_dir() / f"{name}.json").read_text()


def test_record_rejects_unknown_pattern(capsys):
    assert main(["record", "nonesuch"]) == 2
    assert "unknown pattern" in capsys.readouterr().out


def test_fuzz_clean_box_exits_zero(capsys):
    assert main(["fuzz", "--seconds", "2", "--seed", "3"]) == 0
    assert "no counterexample" in capsys.readouterr().out
