"""Wall-clock selftest: simulated-events/sec and per-figure sweep timing.

``python -m repro.bench selftest`` answers "how fast does the
reproduction itself run?" — the *wall-clock* speed of the simulator, as
opposed to the simulated microseconds every other benchmark reports:

* **engine microbenchmarks** — a representative ping-pong and a
  100-message streaming window, reporting dispatched simulator events,
  wall seconds, events/sec and ns/event — plus a host-profiled pass
  (:mod:`repro.obs.hostprof`) attributing those nanoseconds to host
  categories and asserting the profiler's own overhead stays within
  budget;
* **per-figure sweeps** — each figure on a small fixed grid, run twice
  against a private result cache: the cold pass measures measurement
  throughput, the warm pass measures cache-hit speedup and verifies that
  every cell was served from cache.

The CI bench gate embeds this report in its BENCH output
(``--selftest``), so events/sec regressions are visible next to the
simulated-performance numbers.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time
from typing import Optional

from repro.bench import parallel

__all__ = [
    "DEFAULT_OVERHEAD_BUDGET",
    "SELFTEST_GRIDS",
    "engine_microbench",
    "format_selftest",
    "run_selftest",
]

#: allowed relative wall-clock cost of host profiling vs a plain run —
#: asserted by :func:`run_selftest`
DEFAULT_OVERHEAD_BUDGET = 0.15

#: small fixed grid per figure — big enough to exercise every scheme and
#: both latency- and bandwidth-style cells, small enough for CI
SELFTEST_GRIDS = {
    "fig02": (8,),
    "fig08": (8, 64),
    "fig09": (8, 64),
    "fig11": (2048,),
    "fig12": (16,),
    "fig13": (4,),
    "fig14": (8, 64),
}


def engine_microbench(repeats: int = 1, host_profile: bool = False) -> dict:
    """Events/sec of the discrete-event engine on two reference runs.

    ``repeats > 1`` runs each benchmark that many times and keeps the
    fastest (highest events/sec) — the bench gate uses best-of-3 so a
    scheduling hiccup on a shared CI machine doesn't read as an engine
    regression.  Event counts are deltas of ``sim.events_processed``
    across the measured ``run()`` only, so events dispatched outside the
    timed window (cluster construction, a reused simulator) never
    inflate the throughput.

    ``host_profile=True`` additionally runs each benchmark best-of-N
    under the host-time profiler (:mod:`repro.obs.hostprof`) and attaches
    a ``"host"`` section to its entry: per-category ns/event, closure,
    and the measured overhead of instrumenting vs the plain run.
    """
    from repro.bench.runner import _span, make_cluster
    from repro.bench.workloads import column_vector

    dt = column_vector(64).datatype
    span = _span(dt)
    out = {}

    def measure(programs, profiled):
        cluster = make_cluster("bc-spup", {"host_profile": profiled})
        events_before = cluster.sim.events_processed
        t0 = time.perf_counter()
        cluster.run(programs)
        wall = time.perf_counter() - t0
        events = cluster.sim.events_processed - events_before
        run = {
            "events": events,
            "wall_s": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "ns_per_event": wall * 1e9 / events if events else 0.0,
        }
        if profiled:
            run["snapshot"] = cluster.host_profiler.snapshot()
        return run

    def timed(name, programs):
        # plain and profiled runs interleave so both best-of-N minima see
        # the same noise conditions — sequential blocks on a shared
        # machine can attribute a scheduler hiccup entirely to one side
        best = prof = None
        for _ in range(max(1, repeats)):
            run = measure(programs, profiled=False)
            if best is None or run["events_per_sec"] > best["events_per_sec"]:
                best = run
            if host_profile:
                run = measure(programs, profiled=True)
                if (
                    prof is None
                    or run["events_per_sec"] > prof["events_per_sec"]
                ):
                    prof = run
        if prof is not None:
            snap = prof.pop("snapshot")
            plain_ns = best["ns_per_event"]
            best["host"] = {
                "events": snap["events"],
                "closure": snap["closure"],
                "ns_per_event": snap["ns_per_event"],
                # instrumented vs plain wall cost, both best-of-N and
                # both measured around the same outer run() call
                "overhead": (
                    prof["ns_per_event"] / plain_ns - 1.0 if plain_ns else 0.0
                ),
            }
        out[name] = best

    def pp0(mpi):
        buf = mpi.alloc(span)
        for i in range(10):
            yield from mpi.send(buf, dt, 1, dest=1, tag=0)
            yield from mpi.recv(buf, dt, 1, source=1, tag=1)

    def pp1(mpi):
        buf = mpi.alloc(span)
        for i in range(10):
            yield from mpi.recv(buf, dt, 1, source=0, tag=0)
            yield from mpi.send(buf, dt, 1, dest=0, tag=1)

    timed("pingpong", [pp0, pp1])

    def bw0(mpi):
        buf = mpi.alloc(span)
        reqs = []
        for k in range(100):
            r = yield from mpi.isend(buf, dt, 1, dest=1, tag=k)
            reqs.append(r)
        yield from mpi.waitall(reqs)

    def bw1(mpi):
        buf = mpi.alloc(span)
        reqs = []
        for k in range(100):
            r = yield from mpi.irecv(buf, dt, 1, source=0, tag=k)
            reqs.append(r)
        yield from mpi.waitall(reqs)

    timed("bandwidth", [bw0, bw1])
    return out


def _over_budget(engine: dict, budget: float) -> dict:
    """``{bench: overhead}`` for benches whose host-profiling overhead
    exceeds ``budget``."""
    return {
        name: m["host"]["overhead"]
        for name, m in engine.items()
        if "host" in m and m["host"]["overhead"] > budget
    }


def _check_overhead(report: dict, budget: float, repeats: int) -> None:
    """Assert the host profiler's measured overhead stays within budget.

    Wall-clock ratios on shared machines are noisy even best-of-N, so a
    breach is confirmed with one slower, higher-repeat re-measurement
    before failing — a genuinely regressed profiler hot path stays slow;
    a scheduler hiccup doesn't.
    """
    over = _over_budget(report["engine"], budget)
    if not over:
        return
    retry = engine_microbench(
        repeats=max(5, repeats + 2), host_profile=True
    )
    for name in over:
        if name in retry:
            report["engine"][name] = retry[name]
    over = _over_budget(report["engine"], budget)
    if not over:
        return
    name, overhead = next(iter(over.items()))
    m = report["engine"][name]
    raise AssertionError(
        f"host-profiler overhead on {name!r} is {overhead * 100:.1f}% "
        f"(budget {budget * 100:.0f}%): {m['ns_per_event']:.0f} ns/event "
        f"plain vs {m['host']['ns_per_event']['total']:.0f} instrumented "
        "— see docs/PROFILING.md (duty cycle)"
    )


def run_selftest(
    jobs: Optional[int] = None,
    repeats: int = 3,
    host_profile: bool = True,
) -> dict:
    """Run the full selftest; returns the report dict.

    Figure sweeps run against a private temporary cache and results
    directory — the selftest never touches ``.repro-cache/`` or the
    checked-in ``results/`` CSVs.

    The engine microbenchmarks run best-of-``repeats`` and (unless
    ``host_profile=False``) once more under the host-time profiler,
    reporting per-category ns/event and **asserting** the profiler's
    wall-clock overhead stays within :data:`DEFAULT_OVERHEAD_BUDGET` —
    the selftest is where a profiler-hot-path regression fails loudly.
    """
    from repro.bench import figures

    jobs_resolved = parallel.resolve_jobs(jobs)
    report: dict = {
        "jobs": jobs_resolved,
        "engine_repeats": max(1, repeats),
        "engine": engine_microbench(repeats=repeats, host_profile=host_profile),
        "figures": {},
    }
    if host_profile:
        _check_overhead(report, DEFAULT_OVERHEAD_BUDGET, repeats)
        report["host_profile"] = {
            "overhead_budget": DEFAULT_OVERHEAD_BUDGET,
            "benches": {
                name: m["host"]
                for name, m in report["engine"].items()
                if "host" in m
            },
        }

    saved_env = {
        k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_RESULTS_DIR")
    }
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
        os.environ["REPRO_RESULTS_DIR"] = os.path.join(tmp, "results")
        try:
            for figure, grid in SELFTEST_GRIDS.items():
                # bypass the per-sweep lru memo: the warm pass must hit the
                # on-disk cell cache, not the in-process result object
                fn = getattr(figures, figure).__wrapped__
                sink = io.StringIO()
                parallel.STATS.reset()
                with contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    fn(grid)
                    cold = time.perf_counter() - t0
                    cells = parallel.STATS.cells
                    executed = parallel.STATS.executed
                    t0 = time.perf_counter()
                    fn(grid)
                    warm = time.perf_counter() - t0
                hits = parallel.STATS.cache_hits
                report["figures"][figure] = {
                    "cells": cells,
                    "executed": executed,
                    "cold_wall_s": cold,
                    "warm_wall_s": warm,
                    "warm_cache_hits": hits,
                    "cells_per_sec": cells / cold if cold > 0 else 0.0,
                }
        finally:
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            parallel.STATS.reset()
    return report


def format_selftest(report: dict) -> str:
    """Render the selftest report as an aligned text table."""
    lines = [f"bench selftest (jobs={report['jobs']})", ""]
    lines.append("engine (simulated events dispatched per wall-clock second):")
    for name, m in report["engine"].items():
        lines.append(
            f"  {name:<10} {m['events']:>8d} events  {m['wall_s'] * 1e3:>8.1f} ms"
            f"  {m['events_per_sec'] / 1e3:>8.1f} kev/s"
            f"  {m.get('ns_per_event', 0.0):>7.0f} ns/ev"
        )
        host = m.get("host")
        if host:
            nspe = host["ns_per_event"]
            tops = sorted(
                (
                    (cat, ns)
                    for cat, ns in nspe.items()
                    if cat != "total"
                ),
                key=lambda kv: -kv[1],
            )[:3]
            top_txt = ", ".join(f"{cat} {ns:.0f}" for cat, ns in tops)
            lines.append(
                f"  {'':<10} host-profiled {nspe['total']:>6.0f} ns/ev "
                f"({host['overhead'] * 100:+.1f}% overhead, closure "
                f"{host['closure'] * 100:.1f}%)  top: {top_txt}"
            )
    lines.append("")
    header = (
        f"  {'figure':<7} {'cells':>5} {'cold_ms':>9} {'warm_ms':>9} "
        f"{'hits':>5} {'cells/s':>8}"
    )
    lines.append("figure sweeps (small grids, private cold/warm cell cache):")
    lines.append(header)
    for figure, m in report["figures"].items():
        lines.append(
            f"  {figure:<7} {m['cells']:>5d} {m['cold_wall_s'] * 1e3:>9.1f} "
            f"{m['warm_wall_s'] * 1e3:>9.1f} {m['warm_cache_hits']:>5d} "
            f"{m['cells_per_sec']:>8.2f}"
        )
    return "\n".join(lines)
