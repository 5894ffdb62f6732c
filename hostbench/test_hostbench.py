"""Schema test of hostbench, through ``run.py --quick`` (2 passes of the
smallest cells; the whole file runs in about 20 s).

    python3 -m pytest hostbench/test_hostbench.py

Not part of tier-1: ``testpaths`` names ``tests`` only.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*flags, cwd=ROOT):
    """(exit code, result object or None, standard output) of one run."""
    done = subprocess.run(
        [*SPEC["command"], *flags], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stdout


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["hostbench"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def cells_of(workload: str, seed: str) -> dict:
    """``{cell: (events, sim_us)}`` from the report a run left behind."""
    report = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}.json").read_text()
    )["workloads"][workload]
    return {
        name: (cell["events"], cell["sim_us"])
        for name, cell in report["cells"].items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, result, out = run("--workload", workload, "--seed", "3", "--quick")
    assert code == 0, out
    check_result(result, SPEC["end_to_end"])
    if workload == "stream_copy":
        # the seed makes payload bytes only: counts and sim time stay
        code, _result, out = run("--workload", workload, "--seed", "4", "--quick")
        assert code == 0, out
        assert cells_of(workload, "3") == cells_of(workload, "4")
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in out  # named in the readable part too


def test_traced_run_prints_every_per_layer_metric():
    code, result, out = run(
        "--workload", "stream_copy", "--seed", "3", "--quick", "--trace", "1"
    )
    assert code == 0, out
    check_result(result, SPEC["per_layer"])
    report = json.loads(
        (HERE / "out" / "stream_copy-seed3-trace.json").read_text()
    )["workloads"]["stream_copy"]
    assert report["spans"] and len(report["spans"][0]) == len(report["span_columns"])


@pytest.mark.parametrize(
    "workload", ["pingpong_latency", "alltoall_struct", "trace_replay"]
)
def test_a_flipped_byte_fails_the_run(workload):
    code, result, _out = run(
        "--workload", workload, "--seed", "3", "--quick", "--self-test-corrupt"
    )
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["delivered_share"]["value"] < 1.0


def test_without_the_simulator_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "hostbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    code, result, _out = run("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert code != 0 and result is None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
