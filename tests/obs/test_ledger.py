"""Run-ledger durability: atomic appends under concurrent writers,
corrupt-tail tolerance, deterministic record content, path resolution."""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import ledger


@pytest.fixture
def ledger_file(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    return tmp_path / "ledger" / "ledger.jsonl"


def _record(i=0, **kw):
    kw.setdefault("timestamp", 1000.0 + i)
    kw.setdefault("sha", f"{i:040x}")
    kw.setdefault("status", "pass")
    kw.setdefault("metrics", {"fig08/bc-spup/cols=8": {"value": 10.0 + i}})
    return ledger.make_record("gate", **kw)


class TestPaths:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "x"))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "y"))
        assert ledger.ledger_path() == tmp_path / "x" / "ledger.jsonl"

    def test_results_dir_redirection(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "res"))
        assert (
            ledger.ledger_path()
            == tmp_path / "res" / "ledger" / "ledger.jsonl"
        )

    def test_default_is_checked_in_location(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert str(ledger.ledger_path()).replace(os.sep, "/") == (
            "results/ledger/ledger.jsonl"
        )


class TestAppendRead:
    def test_roundtrip(self, ledger_file):
        for i in range(3):
            ledger.append_record(_record(i))
        records = ledger.read_ledger()
        assert [r["timestamp"] for r in records] == [1000.0, 1001.0, 1002.0]
        assert all(r["schema"] == ledger.SCHEMA_VERSION for r in records)

    def test_append_only_extends(self, ledger_file):
        ledger.append_record(_record(0))
        size0 = ledger_file.stat().st_size
        first = ledger_file.read_bytes()
        ledger.append_record(_record(1))
        data = ledger_file.read_bytes()
        assert data[:size0] == first  # history never rewritten
        assert data.count(b"\n") == 2

    def test_missing_file_reads_empty(self, ledger_file):
        assert ledger.read_ledger() == []

    def test_corrupt_tail_tolerated_as_truncation(self, ledger_file):
        ledger.append_record(_record(0))
        ledger.append_record(_record(1))
        # simulate a torn final write (crash mid-append)
        with open(ledger_file, "ab") as fh:
            fh.write(b'{"schema":1,"kind":"gate","time')
        records = ledger.read_ledger()
        assert [r["timestamp"] for r in records] == [1000.0, 1001.0]
        # the ledger keeps working: the next append lands on a new line...
        ledger.append_record(_record(2))
        records = ledger.read_ledger()
        # ...whose merged line with the torn tail is dropped, while both
        # original records survive — a torn write never corrupts history
        assert [r["timestamp"] for r in records][:2] == [1000.0, 1001.0]

    def test_corrupt_interior_line_skipped(self, ledger_file):
        ledger.append_record(_record(0))
        with open(ledger_file, "ab") as fh:
            fh.write(b"not json at all\n")
        ledger.append_record(_record(1))
        assert [r["timestamp"] for r in ledger.read_ledger()] == [
            1000.0,
            1001.0,
        ]

    def test_kind_filter(self, ledger_file):
        ledger.append_record(_record(0))
        ledger.append_record(
            ledger.make_record("selftest", timestamp=5.0, sha="s" * 40)
        )
        assert len(ledger.read_ledger(kind="gate")) == 1
        assert len(ledger.read_ledger(kind="selftest")) == 1


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "lossy")
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        a = ledger.encode_record(_record(3))
        b = ledger.encode_record(_record(3))
        assert a == b
        rec = json.loads(a)
        assert rec["fault_env"] == {"profile": "lossy", "seed": "7"}
        assert rec["cost_model"]["wire_latency"] == 1.3
        assert rec["version"]

    def test_single_line_encoding(self):
        data = ledger.encode_record(_record(0))
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_git_sha_env_short_circuit(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "f" * 40)
        assert ledger.git_sha() == "f" * 40


def _hammer(args):
    """Worker: append ``count`` records to one shared ledger file."""
    path, writer, count = args
    for i in range(count):
        ledger.append_record(
            ledger.make_record(
                "gate",
                timestamp=float(writer * 1000 + i),
                sha=f"{writer:040x}",
                status="pass",
            ),
            path,
        )
    return count


class TestConcurrentWriters:
    def test_parallel_appends_interleave_whole_lines(self, tmp_path):
        """8 processes x 25 records: every line parses, none are lost."""
        path = str(tmp_path / "ledger.jsonl")
        writers, per_writer = 8, 25
        with ProcessPoolExecutor(max_workers=writers) as pool:
            done = list(
                pool.map(
                    _hammer,
                    [(path, w, per_writer) for w in range(writers)],
                )
            )
        assert sum(done) == writers * per_writer
        raw = open(path, "rb").read()
        lines = [ln for ln in raw.split(b"\n") if ln.strip()]
        assert len(lines) == writers * per_writer
        records = [json.loads(ln) for ln in lines]  # all parse
        # every (writer, i) pair arrived exactly once
        seen = {(r["sha"], r["timestamp"]) for r in records}
        assert len(seen) == writers * per_writer
        # read_ledger agrees
        assert len(ledger.read_ledger(path)) == writers * per_writer
