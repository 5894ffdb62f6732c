"""Regression explainer: *which category moved*, not just "it got slower".

When the bench gate (:mod:`repro.bench.gate`) finds a metric worse than
baseline, detection alone says nothing actionable.  This module re-runs
the critical-path profiler (:func:`repro.obs.profile.critical_path`, via
:func:`~repro.obs.profile.transfer_path`) on each regressed cell and
diffs the per-category attribution — copy / wire / descriptor /
registration / resource-wait / protocol-wait — against the attribution
``--write-baseline`` stored beside the cell's value in
``benchmarks/baseline.json``.  Both sides are deterministic simulated
numbers, so a fresh clone explains a regression without any run history.
The output names the moved category and its magnitude in simulated
microseconds, e.g.::

    fig08/bc-spup/cols=64: critical path 166.20 -> 191.50 us (+25.30 us)
      moved: copy +25.10 us (+73.6%)  [34.10 -> 59.20 us]

Gate metric keys look like ``fig08/<scheme>/cols=<n>``;
:func:`parse_metric_key` recovers the cell coordinates.  Keys that name
no such cell, and cells whose baseline entry predates the stored
attribution, are reported as unexplained rather than silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.profile import CATEGORIES, transfer_path

__all__ = [
    "CategoryMove",
    "RegressionExplanation",
    "cell_attribution",
    "collect_attributions",
    "explain_regressions",
    "format_regressions",
    "parse_metric_key",
]

_KEY_RE = re.compile(r"^(fig\d+)/([^/]+)/cols=(\d+)$")


def parse_metric_key(key: str) -> Optional[tuple[str, str, int]]:
    """``"fig08/bc-spup/cols=64"`` -> ``("fig08", "bc-spup", 64)``.

    Returns None for keys that do not name a profilable sweep cell.
    """
    m = _KEY_RE.match(key)
    if m is None:
        return None
    return m.group(1), m.group(2), int(m.group(3))


def cell_attribution(figure: str, scheme: str, cols: int) -> dict:
    """Critical-path attribution of one profiled transfer of the cell's
    datatype: ``{"total_us": ..., "copy": ..., "wire": ..., ...}``.

    The gate metrics are multi-iteration medians while this profiles a
    single transfer, so absolute numbers differ; the *per-category
    deltas* between two attributions of the same cell isolate what a
    cost-model or protocol change moved.
    """
    from repro.bench.runner import traced_oneway
    from repro.bench.workloads import figure_workload

    dt = figure_workload(figure, cols).datatype
    attr = transfer_path(traced_oneway(scheme, dt))
    out = {"total_us": attr.total_us}
    for cat in CATEGORIES:
        out[cat] = attr.categories.get(cat, 0.0)
    return out


def collect_attributions(keys: Iterable[str]) -> dict:
    """Attribution for every parseable metric key: ``{key: attribution}``."""
    out: dict = {}
    for key in keys:
        parsed = parse_metric_key(key)
        if parsed is None:
            continue
        out[key] = cell_attribution(*parsed)
    return out


@dataclass(frozen=True)
class CategoryMove:
    """One category's attributed time, before vs after."""

    category: str
    before_us: float
    after_us: float

    @property
    def delta_us(self) -> float:
        return self.after_us - self.before_us

    @property
    def pct(self) -> float:
        """Relative change vs the before value (0 when unmeasurable)."""
        return 100.0 * self.delta_us / self.before_us if self.before_us else 0.0


@dataclass
class RegressionExplanation:
    """Per-cell attribution diff for one regressed gate metric."""

    key: str
    moves: list = field(default_factory=list)  #: CategoryMove, |delta| desc
    total_before_us: float = 0.0
    total_after_us: float = 0.0
    #: set when the cell could not be attributed (non-cell metric, or a
    #: baseline entry without an attribution)
    reason: Optional[str] = None

    @property
    def moved(self) -> Optional[CategoryMove]:
        """The single category that moved the most (None if unexplained)."""
        return self.moves[0] if self.moves else None


def explain_regressions(
    regressed_keys: Sequence[str], baseline_metrics: dict
) -> list[RegressionExplanation]:
    """Profile each regressed cell and diff it against the baseline.

    ``baseline_metrics`` is the ``metrics`` section of
    ``benchmarks/baseline.json``: ``{key: {"value": ..., "attribution":
    {...}}}``.  Only the regressed cells are profiled — a passing gate
    run profiles nothing.
    """
    out: list[RegressionExplanation] = []
    for key in regressed_keys:
        cell = parse_metric_key(key)
        if cell is None:
            out.append(RegressionExplanation(
                key=key,
                reason="not a sweep cell (no critical path to attribute)",
            ))
            continue
        now = cell_attribution(*cell)
        before = baseline_metrics.get(key, {}).get("attribution")
        if not isinstance(before, dict):
            out.append(RegressionExplanation(
                key=key,
                total_after_us=now["total_us"],
                reason="the baseline entry carries no attribution — refresh "
                "it with `python -m repro.bench.gate --write-baseline`",
            ))
            continue
        moves = [
            CategoryMove(c, float(before.get(c, 0.0)), now[c])
            for c in CATEGORIES
        ]
        moves.sort(key=lambda m: -abs(m.delta_us))
        out.append(RegressionExplanation(
            key=key,
            moves=moves,
            total_before_us=float(before.get("total_us", 0.0)),
            total_after_us=now["total_us"],
        ))
    return out


def format_regressions(explanations: Sequence[RegressionExplanation]) -> str:
    """Render explanations as plain text (also readable as markdown)."""
    lines = ["regression explanation (critical path vs the baseline's):"]
    for exp in explanations:
        if exp.reason is not None:
            lines.append(f"  {exp.key}: unexplained — {exp.reason}")
            continue
        total_delta = exp.total_after_us - exp.total_before_us
        lines.append(
            f"  {exp.key}: critical path {exp.total_before_us:.2f} -> "
            f"{exp.total_after_us:.2f} us ({total_delta:+.2f} us)"
        )
        top = exp.moved
        if top is not None:
            lines.append(
                f"    moved: {top.category} {top.delta_us:+.2f} us "
                f"({top.pct:+.1f}%)  "
                f"[{top.before_us:.2f} -> {top.after_us:.2f} us]"
            )
        for mv in exp.moves[1:]:
            if abs(mv.delta_us) < 1e-9:
                continue
            lines.append(
                f"           {mv.category} {mv.delta_us:+.2f} us "
                f"({mv.pct:+.1f}%)"
            )
    return "\n".join(lines)
