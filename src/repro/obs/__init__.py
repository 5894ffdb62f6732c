"""Observability: readers and exporters of the stack's instruments.

The instruments themselves — the :class:`~repro.simulator.trace.Tracer`
(the one simulated-time recorder: hierarchical spans and the interval
queries over them, event provenance, counter samples) and the
:class:`~repro.simulator.metrics.MetricsRegistry` of counters / gauges /
histograms — live in :mod:`repro.simulator`, because the core writes to
them; nothing below ``repro.mpi.world``'s one lazy host-profiler attach
point imports this package.  What is here only *reads* them (see
docs/OBSERVABILITY.md):

* **exporters** — Chrome trace-event JSON (:mod:`repro.obs.chrome`) and
  plain-text/CSV metric snapshots, driven from the ``python -m repro.obs``
  CLI (:mod:`repro.obs.report`);
* **critical-path profiler** — causal bottleneck attribution over the
  engine's provenance records (:mod:`repro.obs.profile`); see
  docs/PROFILING.md.
* **perf observatory** — trajectory tables over the hostbench reports
  committed under ``benchmarks/history/`` (:mod:`repro.obs.trends`).

Nothing in this package builds a world: the probes that need a transfer
(:func:`~repro.obs.report.probe_cells`, the one loop of ``report``,
``profile`` and ``hostprof``) borrow it, lazily, from
:func:`repro.bench.runner.traced_oneway` and
:func:`~repro.obs.hostprof.hostprof_transfer`.
"""

from repro.obs.chrome import (
    chrome_trace_events,
    counter_track_events,
    export_chrome_trace,
)
from repro.obs.profile import (
    CATEGORIES,
    Attribution,
    PathStep,
    categorize,
    critical_path,
    format_bottlenecks,
)
from repro.obs.trends import format_trends, run_trends, sparkline
from repro.simulator.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Attribution",
    "CATEGORIES",
    "Counter",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_US_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "categorize",
    "chrome_trace_events",
    "counter_track_events",
    "critical_path",
    "export_chrome_trace",
    "format_bottlenecks",
    "format_trends",
    "run_trends",
    "sparkline",
]
