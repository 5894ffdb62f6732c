"""Regression explainer: *which category moved*, not just "it got slower".

When the bench gate (:mod:`repro.bench.gate`) finds a metric worse than
baseline, detection alone says nothing actionable.  This module re-runs
the critical-path profiler (:func:`repro.obs.profile.critical_path`, via
:func:`~repro.obs.profile.profile_transfer`) on each regressed cell and
diffs the per-category attribution — copy / wire / descriptor /
registration / resource-wait / protocol-wait — against the ledger's
last-good record (:func:`repro.obs.ledger.last_good`).  The output names
the moved category and its magnitude in simulated microseconds, e.g.::

    fig08/bc-spup/cols=64 (191.5 us vs last-good 166.2 us)
      moved: copy +25.1 us (+52.3%)  [34.1 -> 59.2 us on the critical path]

Gate metric keys look like ``fig08/<scheme>/cols=<n>``;
:func:`parse_metric_key` recovers the cell coordinates.  The wall-clock
``engine/<bench>/events_per_sec`` metrics have no simulated critical
path, but when both the current run and the last-good ledger record
carry a ``host_profile`` section (per-category host ns/event from
:mod:`repro.obs.hostprof`) the explainer diffs *that* instead and names
the host category that moved::

    engine/bandwidth/events_per_sec: host time 7282.00 -> 9150.00 ns/ev
      moved: pack-unpack +1790.10 ns/ev (+612.3%)

Keys that can be explained neither way are reported as unexplainable
rather than silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.profile import CATEGORIES

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

#: wall-clock engine-throughput gate keys — explainable via the host-time
#: profile instead of the (nonexistent) simulated critical path
_ENGINE_KEY_RE = re.compile(r"^engine/([^/]+)/events_per_sec$")


def parse_metric_key(key: str) -> Optional[tuple[str, str, int]]:
    """``"fig08/bc-spup/cols=64"`` -> ``("fig08", "bc-spup", 64)``.

    Returns None for keys that do not name a profilable sweep cell
    (engine throughput, future metric families).
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
    from repro.bench.workloads import figure_workload
    from repro.obs.profile import profile_transfer

    attr, _cluster = profile_transfer(scheme, figure_workload(figure, cols).datatype)
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
    #: set when the cell could not be attributed (non-cell metric, or no
    #: last-good attribution in the ledger)
    reason: Optional[str] = None
    #: measurement unit of the totals/moves: simulated critical-path
    #: diffs are in ``us``; engine-key host-time diffs are in ``ns/ev``
    #: (the CategoryMove ``*_us`` field names are historical)
    unit: str = "us"

    @property
    def moved(self) -> Optional[CategoryMove]:
        """The single category that moved the most (None if unexplained)."""
        return self.moves[0] if self.moves else None


def _moves(categories: Sequence[str], before: dict, after: dict) -> list:
    """One :class:`CategoryMove` per category, largest ``|delta|`` first."""
    moves = [
        CategoryMove(c, float(before.get(c, 0.0)), float(after.get(c, 0.0)))
        for c in categories
    ]
    moves.sort(key=lambda m: -abs(m.delta_us))
    return moves


def _explain_engine_key(
    key: str,
    bench: str,
    host_now: Optional[dict],
    last_good_record: Optional[dict],
) -> RegressionExplanation:
    """Host-time diff for one ``engine/<bench>/events_per_sec`` key.

    Falls back to an unexplained entry (keeping the historical "no
    critical path" wording) when either side lacks host-profile data.
    """
    from repro.obs.hostprof import HOST_CATEGORIES

    now = (host_now or {}).get(bench)
    now_ns = now.get("ns_per_event") if isinstance(now, dict) else None
    if not isinstance(now_ns, dict):
        return RegressionExplanation(
            key=key,
            reason="not a sweep cell (no critical path to attribute; "
            "no host profile in this run either)",
        )
    ref = (last_good_record or {}).get("host_profile", {})
    before = ref.get(bench) if isinstance(ref, dict) else None
    before_ns = before.get("ns_per_event") if isinstance(before, dict) else None
    if not isinstance(before_ns, dict):
        return RegressionExplanation(
            key=key,
            total_after_us=float(now_ns.get("total", 0.0)),
            reason="not a sweep cell (no critical path to attribute), "
            "and no last-good host profile in the ledger yet",
            unit="ns/ev",
        )
    return RegressionExplanation(
        key=key,
        moves=_moves(HOST_CATEGORIES, before_ns, now_ns),
        total_before_us=float(before_ns.get("total", 0.0)),
        total_after_us=float(now_ns.get("total", 0.0)),
        unit="ns/ev",
    )


def explain_regressions(
    regressed_keys: Sequence[str],
    now_attribution: dict,
    last_good_record: Optional[dict],
    host_now: Optional[dict] = None,
) -> list[RegressionExplanation]:
    """Diff each regressed cell's fresh attribution against the ledger.

    ``now_attribution`` is the current run's ``{key: attribution}`` (the
    gate computes it for every cell while appending its own ledger
    record); ``last_good_record`` is the newest passing ledger record
    carrying an ``attribution`` section.  ``host_now`` is the current
    run's host-profile section (``{bench: {"ns_per_event": ...}}``) —
    with it, regressed ``engine/*`` throughput keys are explained by
    diffing per-category host ns/event against the last-good record's
    ``host_profile`` instead of being reported unexplainable.
    """
    ref = (last_good_record or {}).get("attribution", {})
    out: list[RegressionExplanation] = []
    for key in regressed_keys:
        if parse_metric_key(key) is None:
            eng = _ENGINE_KEY_RE.match(key)
            if eng is not None:
                out.append(_explain_engine_key(
                    key, eng.group(1), host_now, last_good_record
                ))
                continue
            out.append(RegressionExplanation(
                key=key,
                reason="not a sweep cell (no critical path to attribute)",
            ))
            continue
        now = now_attribution.get(key) or cell_attribution(
            *parse_metric_key(key)  # type: ignore[misc]
        )
        before = ref.get(key)
        if not isinstance(before, dict):
            out.append(RegressionExplanation(
                key=key,
                total_after_us=now.get("total_us", 0.0),
                reason="no last-good attribution in the ledger yet",
            ))
            continue
        out.append(RegressionExplanation(
            key=key,
            moves=_moves(CATEGORIES, before, now),
            total_before_us=float(before.get("total_us", 0.0)),
            total_after_us=float(now.get("total_us", 0.0)),
        ))
    return out


def format_regressions(
    explanations: Sequence[RegressionExplanation],
    last_good_record: Optional[dict] = None,
) -> str:
    """Render explanations as plain text (also readable as markdown)."""
    lines = []
    if last_good_record is not None:
        sha = (last_good_record.get("sha") or "unknown")[:12]
        lines.append(
            f"regression explanation (vs last-good ledger record "
            f"sha={sha}, version={last_good_record.get('version')}):"
        )
    else:
        lines.append("regression explanation:")
    for exp in explanations:
        if exp.reason is not None:
            lines.append(f"  {exp.key}: unexplained — {exp.reason}")
            continue
        unit = exp.unit
        label = "critical path" if unit == "us" else "host time"
        total_delta = exp.total_after_us - exp.total_before_us
        lines.append(
            f"  {exp.key}: {label} {exp.total_before_us:.2f} -> "
            f"{exp.total_after_us:.2f} {unit} ({total_delta:+.2f} {unit})"
        )
        top = exp.moved
        if top is not None:
            lines.append(
                f"    moved: {top.category} {top.delta_us:+.2f} {unit} "
                f"({top.pct:+.1f}%)  "
                f"[{top.before_us:.2f} -> {top.after_us:.2f} {unit}]"
            )
        for mv in exp.moves[1:]:
            if abs(mv.delta_us) < 1e-9:
                continue
            lines.append(
                f"           {mv.category} {mv.delta_us:+.2f} {unit} "
                f"({mv.pct:+.1f}%)"
            )
    return "\n".join(lines)
