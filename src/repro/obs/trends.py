"""Performance trends over the run ledger: tables and sparklines.

Reads the append-only ledger (:mod:`repro.obs.ledger`) and renders, per
metric key, the trajectory of values across recorded runs — newest last,
one row per record with its git sha, value, and delta vs the previous
record — plus a unicode sparkline of the whole series.

Driven by ``python -m repro.obs trends``::

    python -m repro.obs trends                     # text tables
    python -m repro.obs trends --metric 'fig08/*'  # filter keys
"""

from __future__ import annotations

import fnmatch
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.ledger import read_ledger

__all__ = [
    "format_trends",
    "metric_keys",
    "metric_trajectory",
    "record_metrics",
    "run_trends",
    "sparkline",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of a numeric series (empty-safe)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi - lo < 1e-12:
        return _BLOCKS[3] * len(vals)  # flat series: mid-height bar
    span = hi - lo
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - lo) / span * len(_BLOCKS)))]
        for v in vals
    )


def record_metrics(record: dict) -> dict:
    """One ledger record's ``{key: {value, unit, better}}``: the
    well-formed entries of its ``metrics`` section (gate cells, a sweep's
    grid, selftest throughput, guideline counts share one key space)."""
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return {}
    return {
        key: entry
        for key, entry in metrics.items()
        if isinstance(entry, dict) and "value" in entry
    }


def metric_keys(records: Sequence[dict]) -> list[str]:
    """Every metric key appearing anywhere in the ledger, sorted."""
    keys: set = set()
    for rec in records:
        keys.update(record_metrics(rec))
    return sorted(keys)


def metric_trajectory(
    records: Sequence[dict], key: str
) -> list[tuple[dict, dict]]:
    """``[(record, metric_entry)]`` for records carrying ``key``, oldest
    first — the per-metric time series the tables and sparklines render."""
    out = []
    for rec in records:
        entry = record_metrics(rec).get(key)
        if entry is not None:
            out.append((rec, entry))
    return out


def _short_sha(record: dict) -> str:
    sha = record.get("sha")
    return sha[:7] if isinstance(sha, str) and sha else "-------"


def _stamp(record: dict) -> str:
    ts = record.get("timestamp")
    if not isinstance(ts, (int, float)):
        return "?"
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M"
    )


def _deltas(values: Sequence[float]) -> list[Optional[float]]:
    """Per-step relative change (fraction) vs the previous value."""
    out: list[Optional[float]] = [None]
    for prev, cur in zip(values, values[1:]):
        out.append((cur - prev) / prev if prev else None)
    return out


def format_trends(
    records: Sequence[dict],
    keys: Optional[Sequence[str]] = None,
    last: int = 20,
) -> str:
    """Render per-metric trajectory tables with sparklines as text."""
    if keys is None:
        keys = metric_keys(records)
    lines: list[str] = []
    first, latest = records[0], records[-1]
    lines.append(
        f"perf trends — {len(records)} ledger record(s), "
        f"{_stamp(first)} .. {_stamp(latest)} UTC"
    )
    for key in keys:
        traj = metric_trajectory(records, key)
        if not traj:
            continue
        traj = traj[-last:]
        values = [float(e["value"]) for _r, e in traj]
        unit = traj[-1][1].get("unit", "")
        better = traj[-1][1].get("better", "")
        lines.append("")
        lines.append(
            f"{key}  ({unit}, {better} is better)  {sparkline(values)}"
        )
        header = f"  {'sha':<9} {'when (UTC)':<17} {'value':>14} {'delta':>8}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for (rec, _e), value, delta in zip(traj, values, _deltas(values)):
            d = "" if delta is None else f"{delta * 100:+.1f}%"
            lines.append(
                f"  {_short_sha(rec):<9} {_stamp(rec):<17} "
                f"{value:>14.2f} {d:>8}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI driver
# ----------------------------------------------------------------------

def run_trends(
    ledger: Optional[Union[str, Path]] = None,
    patterns: Optional[Sequence[str]] = None,
    last: int = 20,
    print_fn=print,
) -> int:
    """``python -m repro.obs trends`` entry point; returns the exit code.

    An empty (or absent) ledger is not an error — the tool explains how
    to populate it and exits 0 so fresh checkouts can run it blind.
    """
    records = read_ledger(ledger)
    if not records:
        print_fn(
            "ledger is empty — no runs recorded yet.\n"
            "Run `python -m repro.bench.gate` or `python -m repro.bench "
            "selftest` to append the first record."
        )
        return 0
    keys = metric_keys(records)
    if patterns:
        keys = [
            k for k in keys if any(fnmatch.fnmatch(k, p) for p in patterns)
        ]
        if not keys:
            print_fn(f"no ledger metrics match {list(patterns)!r}")
            return 0
    print_fn(format_trends(records, keys, last=last))
    return 0
