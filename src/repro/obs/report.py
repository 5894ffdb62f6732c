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
library (:func:`breakdown`, :func:`run_report`).  The transfer itself is
:func:`repro.bench.runner.traced_oneway` (imported lazily, like
everything from the driving layers); this module only reads the tracer
and the metrics registry it leaves behind.  :func:`probe_cells` is the
per-(size, scheme) loop of all three probe commands — ``report``,
``profile`` and ``hostprof`` — and writes their Chrome traces.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.schemes import PAPER_SCHEMES

__all__ = [
    "SchemeBreakdown",
    "breakdown",
    "format_health",
    "health_counters",
    "probe_cells",
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


def breakdown(result) -> SchemeBreakdown:
    """The report row of one traced 2-rank transfer (a
    :class:`~repro.mpi.world.RunResult` of ``traced_oneway``)."""
    from repro.bench.overlap import overlap_report

    ov = overlap_report(result)
    return SchemeBreakdown(
        scheme=ov.scheme,
        nbytes=result.values[1].nbytes,
        total_us=ov.total_us,
        copy_us=ov.pack_us + ov.unpack_us,
        wire_us=ov.wire_us,
        overlap_us=ov.pack_overlapped_us + ov.unpack_overlapped_us,
        reg_us=result.cluster.tracer.total_time("reg"),
        descriptors=int(result.cluster.metrics.value("ib.descriptors")),
    )


def probe_cells(
    workload: str,
    sizes: Sequence[int],
    schemes: Sequence[str],
    chrome_out: Optional[str] = None,
    *,
    iters: int = 1,
    host_profile: bool = False,
):
    """The one per-(size, scheme) loop of ``report``, ``profile`` and
    ``hostprof``: yields ``(wl, scheme, result, trace_path)`` per cell.

    A cell is ``iters`` traced one-way transfers — host-profiled and
    untraced with ``host_profile``, so no tracer bills its host time.
    ``chrome_out`` writes each cell's ``<chrome_out>.<scheme>.<size>.json``
    (``trace_path``) with the tracer's counter tracks, from a second,
    traced run for a host-profiled cell, whose host-time tracks it adds.
    """
    from repro.bench.runner import traced_oneway
    from repro.bench.workloads import workload_for
    from repro.obs.chrome import export_scheme_trace
    from repro.obs.hostprof import hostprof_transfer

    transfer = hostprof_transfer if host_profile else traced_oneway
    for nbytes in sizes:
        wl = workload_for(workload, nbytes)
        for scheme in schemes:
            dt = wl.datatype
            result = transfer(scheme, dt, iters=iters)
            path = None
            if chrome_out:
                tracer, series = result.cluster.tracer, {}
                if host_profile:
                    tracer = traced_oneway(scheme, dt, iters=iters).cluster.tracer
                    series = result.cluster.host_profiler.series
                path = export_scheme_trace(
                    tracer, chrome_out, scheme, nbytes, {**tracer.series, **series}
                )
            yield wl, scheme, result, path


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
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown report format {fmt!r}; use text or json")
    rows: list[SchemeBreakdown] = []
    last_cluster = None
    health: dict = {}
    for i, (wl, _scheme, result, _path) in enumerate(
        probe_cells(workload, sizes, schemes, chrome_out)
    ):
        rows.append(breakdown(result))
        last_cluster = result.cluster
        for name, value in health_counters(last_cluster.metrics).items():
            health[name] = health.get(name, 0.0) + value
        if fmt == "text" and (i + 1) % len(schemes) == 0:  # a size's last
            print_fn(
                f"workload {workload}: {wl.name} ({wl.nbytes} bytes/element)"
            )
            print_fn(format_table(rows[-len(schemes):]))
            print_fn("")
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
