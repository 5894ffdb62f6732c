"""Critical-path profiler: causal bottleneck attribution.

When a :class:`~repro.mpi.world.Cluster` is built with ``trace=True``,
the simulator records, for every scheduled event, the event that caused it
(``_cause``), its scheduling and fire times, and an attribution tag
(``_ptag``).  Because every trigger happens while some event is being
processed, an event's scheduling time equals its cause's fire time — so
the backward cause chain from any completion partitions the run into
time-contiguous intervals.  :func:`critical_path` walks that chain and
attributes every microsecond of an operation to one of six categories:

``copy``
    CPU pack/unpack/memcpy work (the datatype engine and byte copies).
``wire``
    HCA injection and link traversal of payload bytes.
``descriptor``
    descriptor handling: CPU posts, HCA per-descriptor startup and
    per-SGE gather overhead, datatype processing that builds descriptors.
``registration``
    memory registration/deregistration, dynamic allocation, page faults.
``resource-wait``
    time queued behind a busy counted resource (CPU core, staging pool).
``protocol-wait``
    rendezvous control traffic, CQ polling, completion delays — protocol
    machinery that is neither payload movement nor contention.

The attribution is *exact by construction*: the walker keeps a
monotonically decreasing cursor and clips every interval against it, so
the per-category times tile ``[t0, end]`` and sum to the measured
operation latency (tests assert to within 0.1%).

This module imports nothing from the simulator/MPI stack at module level;
:func:`transfer_path` walks a :func:`repro.bench.runner.traced_oneway`
transfer from its receive, and :func:`run_profile` borrows the transfers
from :func:`repro.obs.report.probe_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

__all__ = [
    "Attribution",
    "CATEGORIES",
    "PathStep",
    "categorize",
    "critical_path",
    "format_bottlenecks",
    "run_profile",
    "transfer_path",
]

#: the attribution categories, in report order
CATEGORIES = (
    "copy",
    "wire",
    "descriptor",
    "registration",
    "resource-wait",
    "protocol-wait",
)

#: timeout/succeed tags -> category (tags not listed fall to the
#: suffix heuristics in :func:`categorize`, then to protocol-wait)
_TAG_CATEGORY = {
    # copy: datatype engine + byte movement on a CPU
    "pack": "copy",
    "unpack": "copy",
    "copy": "copy",
    "user-pack": "copy",
    "user-unpack": "copy",
    # wire: HCA injection / link traversal of payload
    "wire": "wire",
    "wire-latency": "wire",
    # descriptor: building, posting and starting descriptors
    "descriptor": "descriptor",
    "post_send": "descriptor",
    "post_send_list": "descriptor",
    "post_recv": "descriptor",
    "dtproc": "descriptor",
    # registration: pinning, unpinning, allocation, page faults
    "register": "registration",
    "register_retry": "registration",
    "deregister": "registration",
    "malloc": "registration",
    "free": "registration",
    # explicit protocol machinery
    "ctrl": "protocol-wait",
    "poll": "protocol-wait",
    "poll-detect": "protocol-wait",
    "cqe": "protocol-wait",
    "complete": "protocol-wait",
    "rnr": "protocol-wait",
    "retry": "protocol-wait",
    "qp_recovery": "protocol-wait",
    "rndv-timeout": "protocol-wait",
}


def categorize(tag: Any) -> str:
    """Map an attribution tag to one of :data:`CATEGORIES`."""
    if not isinstance(tag, str):  # None included
        return "protocol-wait"
    cat = _TAG_CATEGORY.get(tag)
    if cat is not None:
        return cat
    # application-level copy tags ("fio-pack", "reduce-sum", "bruck", ...)
    if tag.endswith(("-pack", "-unpack", "-local", "-copyout")) or tag.startswith(
        ("reduce-", "bruck")
    ):
        return "copy"
    return "protocol-wait"


# -- critical-path extraction ------------------------------------------


@dataclass(frozen=True)
class PathStep:
    """One attributed interval on the critical path."""

    start: float
    end: float
    category: str
    tag: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Attribution:
    """The critical-path breakdown of one operation.

    ``categories`` maps every entry of :data:`CATEGORIES` to attributed
    microseconds; together with ``unattributed_us`` they tile
    ``[start_us, end_us]`` exactly (the walker clips intervals against a
    monotone cursor), so their sum equals ``total_us``.
    """

    total_us: float
    start_us: float
    end_us: float
    categories: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    unattributed_us: float = 0.0

    @property
    def attributed_us(self) -> float:
        return sum(self.categories.values())

    def share(self, category: str) -> float:
        """Fraction of the total attributed to ``category``."""
        if self.total_us <= 0:
            return 0.0
        return self.categories.get(category, 0.0) / self.total_us

    def dominant(self) -> str:
        """The category with the largest attribution."""
        return max(self.categories, key=lambda c: self.categories[c])

    def closure_error(self) -> float:
        """|sum of parts - total| — zero up to float rounding."""
        return abs(self.attributed_us + self.unattributed_us - self.total_us)


def critical_path(done, t0: float = 0.0) -> "Attribution":
    """Walk the causal chain backward from a completion event.

    ``done`` is any processed event recorded on a traced simulator
    (e.g. ``request.done``); ``t0`` is the operation's start time.
    Returns an :class:`Attribution` whose category times sum to
    ``done`` fire time minus ``t0``.
    """
    end = done._fire_at
    if end < 0:
        raise ValueError(
            "event carries no provenance — run the cluster with trace=True"
        )
    cats = {c: 0.0 for c in CATEGORIES}
    steps: list[PathStep] = []

    def attribute(lo: float, hi: float, category: str, tag: Any) -> None:
        if hi > lo:
            cats[category] += hi - lo
            steps.append(PathStep(lo, hi, category, tag))

    cursor = end
    ev = done
    while ev is not None and cursor > t0:
        if ev._sched_at < 0:  # scheduled before profiling started (or a root)
            break
        spans = ((ev._sched_at, ev._fire_at, ev._ptag),)
        if isinstance(ev._ptag, tuple) and ev._ptag[0] == "run":
            # one event for a run of descriptors: walked as the timeouts
            # it replaces, newest first, each with its own bounds and tag
            spans = reversed(ev._ptag[1])
        for s, e, tag in spans:
            if cursor <= t0:
                break
            lo = max(s, t0)
            hi = min(e, cursor)
            if not isinstance(tag, tuple):
                attribute(lo, hi, categorize(tag), tag)
            elif tag[0] == "resource-wait":
                # the grant fired at ``e``; the wait started at the
                # recorded request time — the whole span is contention
                lo = max(tag[1], t0)
                attribute(lo, hi, "resource-wait", tag[2])
            elif tag[0] in ("store-wait", "signal-wait"):
                # communication dependency: zero-width here, the time
                # belongs to whatever produced the item (the cause chain)
                pass
            elif tag[0] == "split":
                # one timeout covering several phases: leading parts have
                # fixed durations, the one None part absorbs the rest
                parts = tag[1]
                fixed = sum(d for _c, d in parts if d is not None)
                rem = max(0.0, (e - s) - fixed)
                t = s
                bounds = []
                for cat, dur in parts:
                    dur = rem if dur is None else dur
                    bounds.append((max(t, lo), min(t + dur, hi), cat))
                    t += dur
                # appended newest-first like the walk itself, so the final
                # reversal restores forward order within the event too
                for blo, bhi, cat in reversed(bounds):
                    attribute(blo, bhi, cat, tag)
            else:  # unknown tuple tag: treat as unlabeled
                attribute(lo, hi, "protocol-wait", tag)
            cursor = min(cursor, lo)
        ev = ev._cause

    steps.reverse()
    return Attribution(
        total_us=end - t0,
        start_us=t0,
        end_us=end,
        categories=cats,
        steps=steps,
        unattributed_us=max(0.0, cursor - t0),
    )


def format_bottlenecks(attr: Attribution, title: str = "") -> str:
    """Render an attribution as a ranked plain-text bottleneck table."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'category':<15} {'time_us':>10} {'share':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    ranked = sorted(attr.categories.items(), key=lambda kv: -kv[1])
    for cat, us in ranked:
        lines.append(f"{cat:<15} {us:>10.2f} {100.0 * attr.share(cat):>6.1f}%")
    if attr.unattributed_us > 1e-9:
        lines.append(
            f"{'unattributed':<15} {attr.unattributed_us:>10.2f} "
            f"{100.0 * attr.unattributed_us / max(attr.total_us, 1e-12):>6.1f}%"
        )
    lines.append(f"{'total':<15} {attr.total_us:>10.2f} {100.0:>6.1f}%")
    return "\n".join(lines)


# -- profiled transfers ----------------------------------------------------


def transfer_path(result) -> Attribution:
    """The critical path of a traced one-way transfer (a
    :class:`~repro.mpi.world.RunResult` of ``traced_oneway``): the walk
    from the receiver's completion — end-to-end latency as MPI sees it."""
    return critical_path(result.values[1].done)


def run_profile(
    workload: str = "fig09",
    nbytes: int = 65536,
    schemes: Optional[Sequence[str]] = None,
    chrome_out: Optional[str] = None,
    print_fn=print,
) -> dict:
    """CLI driver: profile every scheme, print ranked bottleneck tables,
    optionally write annotated traces.

    Returns ``{scheme: attribution}``.
    """
    from repro.obs.report import DEFAULT_SCHEMES, probe_cells

    results: dict = {}
    for wl, scheme, result, _path in probe_cells(
        workload, [nbytes], schemes or DEFAULT_SCHEMES, chrome_out
    ):
        attr = results[scheme] = transfer_path(result)
        print_fn(
            format_bottlenecks(
                attr,
                title=(
                    f"critical path: {scheme} / {workload} "
                    f"({wl.datatype.size} bytes), dominant={attr.dominant()}"
                ),
            )
        )
        print_fn("")
    return results
