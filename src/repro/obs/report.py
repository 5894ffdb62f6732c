"""Per-scheme observability report: where did the time go?

Runs one traced transfer per (scheme, size) and breaks the operation down
into the quantities the paper's Figures 2/3 discuss qualitatively:

* **copy us** — CPU copy time (sender pack + receiver unpack),
* **wire us** — HCA injection time on the sender,
* **overlap %** — the fraction of copy time hidden behind wire activity
  (the pipelining win of BC-SPUP / RWG-UP),
* **reg us** — registration/deregistration time on either side,
* **descr** — descriptors processed by both HCAs.

Driven by the ``python -m repro.obs report`` CLI; also usable as a
library (:func:`measure_breakdown`, :func:`run_report`).  The transfer
itself is :func:`repro.bench.runner.run_oneway` (imported lazily, like
everything from the driving layers); this module only reads the tracer
and the metrics registry it leaves behind.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.schemes import PAPER_SCHEMES

__all__ = [
    "SchemeBreakdown",
    "format_health",
    "health_counters",
    "measure_breakdown",
    "report_json",
    "run_report",
]

#: schemes the report covers by default (the figures' line-up)
DEFAULT_SCHEMES = PAPER_SCHEMES


@dataclass(frozen=True)
class SchemeBreakdown:
    """One row of the report table."""

    scheme: str
    nbytes: int
    total_us: float
    copy_us: float
    wire_us: float
    overlap_us: float
    reg_us: float
    descriptors: int

    @property
    def overlap_pct(self) -> float:
        """Share of copy time hidden behind wire activity."""
        return 100.0 * self.overlap_us / self.copy_us if self.copy_us else 0.0


def measure_breakdown(
    scheme: str,
    dt,
    *,
    count: int = 1,
    scheme_options: Optional[dict] = None,
) -> tuple[SchemeBreakdown, object]:
    """Run one traced 2-rank transfer of (dt, count) under ``scheme``.

    Returns ``(breakdown, cluster)`` — the cluster gives callers access to
    the tracer and metrics registry for export.
    """
    from repro.bench.runner import make_cluster, run_oneway

    cluster = make_cluster(scheme, {"trace": True}, scheme_options)
    result = run_oneway(cluster, dt, count=count)
    tracer = cluster.tracer
    copy_us = (
        tracer.total_time("pack", node=0)
        + tracer.total_time("user-pack", node=0)
        + tracer.total_time("unpack", node=1)
    )
    # wire intervals are recorded on the sender; the receiver's inbound
    # DMA mirrors them one switch latency later
    hidden = tracer.overlap_time(("pack", 0), ("wire", 0)) + tracer.overlap_time(
        ("unpack", 1), ("wire", 0)
    )
    breakdown = SchemeBreakdown(
        scheme=scheme,
        nbytes=dt.size * count,
        total_us=result.time_us,
        copy_us=copy_us,
        wire_us=tracer.total_time("wire", node=0),
        overlap_us=hidden,
        reg_us=tracer.total_time("reg"),
        descriptors=int(cluster.metrics.value("ib.descriptors")),
    )
    return breakdown, cluster


#: counters surfaced in the report's health section (fault injection,
#: PR "repro.faults"): only shown when at least one fired
_HEALTH_EXACT = (
    "rndv.timeouts",
    "rndv.retransmits",
    "reg.retries",
    "scheme.fallbacks",
)


def health_counters(metrics) -> dict:
    """Nonzero fault/retry counters: {name: cluster-wide total}.

    Empty in fault-free runs (the counters are never created), so the
    report's health section only appears under an active fault profile
    (e.g. ``REPRO_FAULT_PROFILE=lossy``).
    """
    totals: dict = {}
    for name in metrics.names():
        if name.startswith(("faults.", "qp.")) or name in _HEALTH_EXACT:
            value = metrics.value(name)
            if value:
                totals[name] = totals.get(name, 0.0) + value
    return totals


def format_health(totals: dict) -> str:
    """Render accumulated health counters as an aligned table."""
    header = f"{'fault/retry counter':<24} {'total':>10}"
    lines = ["health (fault injection active)", header, "-" * len(header)]
    for name in sorted(totals):
        lines.append(f"{name:<24} {totals[name]:>10g}")
    return "\n".join(lines)


def format_table(rows: Sequence[SchemeBreakdown]) -> str:
    """Render breakdown rows as an aligned plain-text table."""
    header = (
        f"{'scheme':<10} {'bytes':>9} {'total_us':>10} {'copy_us':>9} "
        f"{'wire_us':>9} {'overlap%':>8} {'reg_us':>8} {'descr':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.scheme:<10} {r.nbytes:>9} {r.total_us:>10.1f} "
            f"{r.copy_us:>9.1f} {r.wire_us:>9.1f} {r.overlap_pct:>7.1f}% "
            f"{r.reg_us:>8.1f} {r.descriptors:>7}"
        )
    return "\n".join(lines)


def report_json(
    workload: str,
    sizes: Sequence[int],
    rows: Sequence[SchemeBreakdown],
    health: dict,
) -> dict:
    """The machine-readable report: same data as the text tables.

    This is the one schema external tooling reads;
    see docs/OBSERVABILITY.md for the field list.
    """
    return {
        "schema": 1,
        "workload": workload,
        "sizes": list(sizes),
        "rows": [
            {**asdict(r), "overlap_pct": r.overlap_pct} for r in rows
        ],
        "health": dict(health),
    }


def run_report(
    workload: str = "fig09",
    sizes: Sequence[int] = (65536,),
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    chrome_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    fmt: str = "text",
    print_fn=print,
) -> list[SchemeBreakdown]:
    """Run the breakdown for every (size, scheme) and print the table.

    ``chrome_out`` writes one Chrome trace JSON per scheme/size
    (``<prefix>.<scheme>.<size>.json``); ``metrics_out`` writes the last
    run's metric snapshot as CSV.  ``fmt="json"`` prints one JSON
    document (:func:`report_json`) instead of the text tables.
    """
    from repro.bench.workloads import workload_for
    from repro.obs.chrome import export_scheme_trace

    if fmt not in ("text", "json"):
        raise ValueError(f"unknown report format {fmt!r}; use text or json")
    rows: list[SchemeBreakdown] = []
    last_cluster = None
    health: dict = {}
    for nbytes in sizes:
        wl = workload_for(workload, nbytes)
        size_rows = []
        for scheme in schemes:
            breakdown, cluster = measure_breakdown(scheme, wl.datatype)
            size_rows.append(breakdown)
            last_cluster = cluster
            for name, value in health_counters(cluster.metrics).items():
                health[name] = health.get(name, 0.0) + value
            if chrome_out:
                export_scheme_trace(cluster.tracer, chrome_out, scheme, nbytes)
        if fmt == "text":
            print_fn(
                f"workload {workload}: {wl.name} ({wl.nbytes} bytes/element)"
            )
            print_fn(format_table(size_rows))
            print_fn("")
        rows.extend(size_rows)
    if fmt == "json":
        print_fn(json.dumps(
            report_json(workload, sizes, rows, health),
            indent=2,
            sort_keys=True,
        ))
    elif health:
        print_fn(format_health(health))
        print_fn("")
    if metrics_out and last_cluster is not None:
        last_cluster.metrics.to_csv(metrics_out)
    return rows
