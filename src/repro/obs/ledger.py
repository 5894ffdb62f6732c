"""Append-only JSONL run ledger: the repo's performance memory.

Every bench-gate, selftest, and figure-sweep run appends one structured
record to ``results/ledger/ledger.jsonl`` (git-ignored — CI carries it
between builds with ``actions/cache``; see :func:`ledger_path` for the
override environment).  A record captures everything needed to
interpret the numbers later — git sha, wall-clock timestamp, package
version, the full :class:`~repro.ib.costmodel.CostModel` parameter set,
the fault-injection environment and the per-cell metric values — so the
trends CLI (:mod:`repro.obs.trends`) can chart any stretch of the repo's
history without re-running it.  The ledger is a convenience, not the
reference: what a regression is measured and explained against is the
committed ``benchmarks/baseline.json`` (:mod:`repro.obs.regress`).

Durability contract:

* **atomic append** — a record is serialized to a single line and written
  with one ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
  writers (parallel CI jobs, a sweep racing a gate) interleave whole
  lines, never bytes;
* **corrupt tail tolerated** — a torn final line (power loss, a killed
  writer) reads back as truncation: :func:`read_ledger` drops
  unparsable lines instead of failing, so the ledger never wedges its
  own tooling;
* **append-only** — nothing in this module rewrites or truncates the
  file; history is only ever extended.

Timestamps are *parameters*: this package never consults the wall clock
itself (``tests/obs/test_no_wallclock.py``) — callers in ``repro.bench``
pass the current epoch seconds in.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Any, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "append_record",
    "cost_model_params",
    "encode_record",
    "fault_env",
    "git_sha",
    "ledger_dir",
    "ledger_path",
    "make_record",
    "read_ledger",
]

#: bump when a record's shape changes incompatibly
SCHEMA_VERSION = 1

LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"
LEDGER_FILENAME = "ledger.jsonl"

#: record kinds the bench, guidelines, and workload-suite layers write
KINDS = ("gate", "selftest", "sweep", "guidelines", "scenario")


def ledger_dir() -> Path:
    """Directory holding the ledger.

    ``$REPRO_LEDGER_DIR`` wins outright; otherwise the ledger lives in
    ``<results>/ledger`` where ``<results>`` honours the same
    ``$REPRO_RESULTS_DIR`` redirection the sweep CSVs use (so test runs
    never touch the working ledger).
    """
    env = os.environ.get(LEDGER_DIR_ENV)
    if env:
        return Path(env)
    results = os.environ.get(RESULTS_DIR_ENV)
    if results:
        return Path(results) / "ledger"
    return Path("results") / "ledger"


def ledger_path() -> Path:
    """Default ledger file: ``<ledger_dir>/ledger.jsonl``."""
    return ledger_dir() / LEDGER_FILENAME


def git_sha() -> Optional[str]:
    """Current commit sha, or None outside a git checkout.

    ``$REPRO_GIT_SHA`` (tests) and ``$GITHUB_SHA`` (CI) short-circuit the
    subprocess so records stay deterministic where that matters.
    """
    for var in ("REPRO_GIT_SHA", "GITHUB_SHA"):
        value = os.environ.get(var)
        if value:
            return value
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def fault_env() -> dict:
    """The fault-injection environment the run executed under."""
    return {
        "profile": os.environ.get("REPRO_FAULT_PROFILE", ""),
        "seed": os.environ.get("REPRO_FAULT_SEED", ""),
    }


def cost_model_params(preset: Optional[str] = None) -> dict:
    """Every parameter of a cost-model preset (default: the paper's
    testbed).  With :func:`fault_env` this is what a simulated value
    depends on besides its workload — ledger records carry both, and the
    sweep cache (:func:`repro.bench.parallel.cell_key`) hashes both."""
    from dataclasses import asdict

    from repro.ib.costmodel import CostModel, get_preset

    return asdict(get_preset(preset) if preset else CostModel.mellanox_2003())


def make_record(
    kind: str,
    *,
    timestamp: float,
    sha: Optional[str] = None,
    status: Optional[str] = None,
    metrics: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Build one ledger record (a plain JSON-serializable dict).

    Everything except ``timestamp``/``sha`` is derived from the
    arguments and the process environment, so two calls with identical
    inputs produce byte-identical encoded records
    (:func:`encode_record`).
    """
    from repro import __version__

    record: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "sha": sha,
        "timestamp": timestamp,
        "version": __version__,
        "cost_model": cost_model_params(),
        "fault_env": fault_env(),
    }
    if status is not None:
        record["status"] = status
    if metrics is not None:
        record["metrics"] = metrics
    if extra:
        record.update(extra)
    return record


def encode_record(record: dict) -> bytes:
    """Serialize a record to its canonical single-line wire form."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        + "\n"
    ).encode()


def append_record(
    record: dict, path: Optional[Union[str, Path]] = None
) -> Path:
    """Atomically append one record; returns the ledger path written.

    The record is serialized to one line and written with a single
    ``os.write`` on an ``O_APPEND`` descriptor — concurrent appenders
    cannot interleave partial lines (POSIX appends are atomic per
    write), and a crashed writer leaves at worst a torn *tail* line,
    which :func:`read_ledger` treats as truncation.
    """
    out = Path(path) if path is not None else ledger_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    data = encode_record(record)
    fd = os.open(out, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)
    return out


def read_ledger(
    path: Optional[Union[str, Path]] = None,
    *,
    kind: Optional[str] = None,
) -> list[dict]:
    """Read every parseable record, oldest first.

    A missing file reads as an empty ledger.  Unparsable lines are
    skipped: a torn tail line is indistinguishable from truncation and
    is silently dropped; corrupt interior lines are likewise skipped so
    one bad write can never wedge the trends/regression tooling.
    """
    src = Path(path) if path is not None else ledger_path()
    try:
        raw = src.read_bytes()
    except OSError:
        return []
    records: list[dict] = []
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # torn/corrupt line == truncation at that point
        if not isinstance(rec, dict):
            continue
        if kind is not None and rec.get("kind") != kind:
            continue
        records.append(rec)
    return records

