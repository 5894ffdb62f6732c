"""Performance trends over the committed history: tables and sparklines.

``benchmarks/history/BENCH_<n>.json`` is the unedited report of
``python3 hostbench/run.py --workload all --seed 0 --out …`` as measured
for PR *n* (``BENCH_<n>-trace.json`` beside it: the same with
``--trace 1``, the per-layer ladder).  This module reads that directory
and renders, per ``<workload>/<metric>`` key, the values in PR order —
one row per report with its delta vs the previous one — plus a unicode
sparkline of the whole series.  Units come from the reports, directions
from ``BENCHMARK.json``; both paths are relative to the working
directory, the repository root.

Driven by ``python -m repro.obs trends``::

    python -m repro.obs trends                           # text tables
    python -m repro.obs trends --metric 'stream_copy/*'  # filter keys
"""

from __future__ import annotations

import fnmatch
import json
import re
import sys
from pathlib import Path
from typing import Optional, Sequence, Union

__all__ = [
    "HISTORY",
    "format_trends",
    "metric_directions",
    "metric_keys",
    "read_history",
    "run_trends",
    "sparkline",
]

HISTORY = Path("benchmarks/history")
SPEC = Path("BENCHMARK.json")

_REPORT_NAME = re.compile(r"BENCH_(\d+)(-trace)?\.json")
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


def read_history(directory: Union[str, Path] = HISTORY) -> list[tuple[int, dict]]:
    """``[(n, {key: {"value", "unit"}})]`` in PR order, keys
    ``<workload>/<metric>``; a ``-trace`` report's metrics merge into
    the same *n*.  A file that does not read as a hostbench report
    (truncated, or another tool's JSON under the same name) is skipped
    and named on stderr, so one bad file never wedges the reader."""
    points: dict[int, dict] = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        name = _REPORT_NAME.fullmatch(path.name)
        if not name:
            continue
        try:
            metrics = {
                f"{workload}/{metric}": {
                    "value": float(entry["value"]), "unit": entry["unit"],
                }
                for workload, report in
                json.loads(path.read_text())["workloads"].items()
                for metric, entry in report["metrics"].items()
            }
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            print(f"trends: skipping {path}: not a hostbench report",
                  file=sys.stderr)
            continue
        points.setdefault(int(name.group(1)), {}).update(metrics)
    return sorted(points.items())


def metric_directions(spec: Union[str, Path] = SPEC) -> dict[str, str]:
    """``{metric name: "lower" | "higher"}`` as ``BENCHMARK.json``
    declares it (empty when run away from the repository root)."""
    try:
        declared = json.loads(Path(spec).read_text())
    except (OSError, ValueError):
        return {}
    return {
        metric["name"]: metric["better"]
        for section in ("end_to_end", "per_layer")
        for metric in declared.get(section, [])
    }


def metric_keys(history: Sequence[tuple[int, dict]]) -> list[str]:
    """Every ``<workload>/<metric>`` key of any report, sorted."""
    return sorted({key for _n, metrics in history for key in metrics})


def _deltas(values: Sequence[float]) -> list[Optional[float]]:
    """Per-step relative change (fraction) vs the previous value."""
    out: list[Optional[float]] = [None]
    for prev, cur in zip(values, values[1:]):
        out.append((cur - prev) / prev if prev else None)
    return out


def format_trends(
    history: Sequence[tuple[int, dict]],
    keys: Optional[Sequence[str]] = None,
    last: int = 20,
    directions: Optional[dict] = None,
) -> str:
    """Render per-metric trajectory tables with sparklines as text.  A
    report that lacks a metric has no row in that metric's table."""
    if keys is None:
        keys = metric_keys(history)
    directions = directions or {}
    lines = [
        f"perf trends — {len(history)} committed report(s), "
        f"PR {history[0][0]} .. PR {history[-1][0]}"
    ]
    header = f"  {'PR':<6} {'value':>14} {'delta':>8}"
    for key in keys:
        series = [(n, m[key]) for n, m in history if key in m][-last:]
        if not series:
            continue
        values = [entry["value"] for _n, entry in series]
        better = directions.get(key.split("/", 1)[1])
        note = f"{series[-1][1]['unit']}, {better} is better" if better \
            else series[-1][1]["unit"]
        lines += ["", f"{key}  ({note})  {sparkline(values)}",
                  header, "  " + "-" * (len(header) - 2)]
        for (n, _entry), value, delta in zip(series, values, _deltas(values)):
            d = "" if delta is None else f"{delta * 100:+.1f}%"
            lines.append(f"  {n:<6} {value:>14.2f} {d:>8}")
    return "\n".join(lines)


def run_trends(
    history: Union[str, Path] = HISTORY,
    patterns: Optional[Sequence[str]] = None,
    last: int = 20,
    print_fn=print,
) -> int:
    """``python -m repro.obs trends`` entry point; returns the exit code.
    An empty (or absent) directory is not an error."""
    points = read_history(history)
    if not points:
        print_fn(
            f"no BENCH_<n>.json under {history} — commit one with `python3 "
            f"hostbench/run.py --workload all --seed 0 --out "
            f"{history}/BENCH_<n>.json`"
        )
        return 0
    keys = metric_keys(points)
    if patterns:
        keys = [k for k in keys if any(fnmatch.fnmatch(k, p) for p in patterns)]
        if not keys:
            print_fn(f"no committed metrics match {list(patterns)!r}")
            return 0
    print_fn(format_trends(points, keys, last, metric_directions()))
    return 0
