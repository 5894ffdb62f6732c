"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro.bench fig08 fig09          # specific figures
    python -m repro.bench all                  # everything (several minutes)
    python -m repro.bench all -j 0             # ... fanned out over all cores
    python -m repro.bench fig08 --cols 64 2048 # restricted sweep
    python -m repro.bench overlap              # Figure-3 overlap analysis
    python -m repro.bench selftest             # cold/warm sweep + cache check
    python -m repro.bench selftest --json report.json

Tables print to stdout; CSVs land in ``results/``.  Figure sweeps run
through the parallel executor (``-j``/``$REPRO_BENCH_JOBS`` workers) and
the content-addressed result cache under ``.repro-cache/`` — pass
``--fresh`` to ignore cached cells.  Every figure sweep and selftest
appends a record to the run ledger (``results/ledger/``, disable with
``--no-ledger``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import ablations, figures, parallel
from repro.bench.overlap import measure_overlap
from repro.bench.workloads import column_vector

#: every data figure ``repro.bench.figures`` declares, by name
FIGURES = {name: getattr(figures, name) for name in figures.__all__}

ABLATIONS = {
    "segment-size": ablations.segment_size,
    "registration": ablations.registration_strategies,
    "dtcache": ablations.datatype_cache,
    "adaptive": ablations.adaptive_vs_fixed,
    "prrs": ablations.prrs_vs_rwgup,
    "hybrid": ablations.hybrid_bimodal,
    "network": ablations.network_presets,
    "window": ablations.window_sweep,
    "eager-threshold": ablations.eager_threshold,
}


def _append_sweep_record(target: str, result) -> None:
    """Ledger one figure sweep: the full series grid as metric values."""
    from repro.obs import ledger

    try:
        xs, series_map = result
    except (TypeError, ValueError):
        return
    metrics = {}
    for key, series in series_map.items():
        for x, y in zip(xs, series.y):
            metrics[f"{target}/{key}/x={x}"] = {"value": y}
    record = ledger.make_record(
        "sweep",
        timestamp=time.time(),
        sha=ledger.git_sha(),
        metrics=metrics,
        extra={"figure": target},
    )
    ledger.append_record(record)


def _append_selftest_record(report: dict) -> None:
    """Ledger one selftest run: cold sweep throughput per figure."""
    from repro.obs import ledger

    metrics = {
        f"selftest/{fig}/cells_per_sec": {
            "value": m["cells_per_sec"], "unit": "cells/s", "better": "higher",
        }
        for fig, m in report.get("figures", {}).items()
    }
    record = ledger.make_record(
        "selftest",
        timestamp=time.time(),
        sha=ledger.git_sha(),
        metrics=metrics,
        extra={"jobs": report.get("jobs")},
    )
    ledger.append_record(record)


def _run_overlap(cols: int = 1024) -> None:
    w = column_vector(cols)
    print(
        f"\nOverlap analysis (Figure 3), single {w.nbytes >> 10} KB vector "
        f"message, {cols} columns:"
    )
    for scheme in ("generic", "bc-spup", "rwg-up", "multi-w"):
        print(" ", measure_overlap(scheme, w.datatype).describe())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the "
        "simulated InfiniBand cluster.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        choices=sorted(FIGURES)
        + sorted(ABLATIONS)
        + ["all", "ablations", "overlap", "selftest"],
        help="figures, ablations, or 'selftest' (cold/warm sweep timing)",
    )
    parser.add_argument(
        "--cols",
        type=int,
        nargs="+",
        default=None,
        help="restrict the column sweep (figures 2, 8, 9, 12, 13, 14)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes for figure sweeps (0 = all cores; default "
        "$REPRO_BENCH_JOBS or 1)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore the .repro-cache result cache and re-measure every cell",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append run records to results/ledger/",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="selftest only: also write the full report as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None:
        parallel.set_jobs(args.jobs)
    if args.fresh:
        parallel.set_cache_enabled(False)
    targets = list(args.targets)
    if "all" in targets:
        targets = sorted(FIGURES) + sorted(ABLATIONS) + ["overlap"]
    elif "ablations" in targets:
        targets = [t for t in targets if t != "ablations"] + sorted(ABLATIONS)
    for target in targets:
        if target == "overlap":
            _run_overlap()
            continue
        if target == "selftest":
            import json

            from repro.bench.selftest import format_selftest, run_selftest

            selftest = run_selftest(jobs=args.jobs)
            print(format_selftest(selftest))
            if args.json is not None:
                from pathlib import Path

                out = Path(args.json)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(
                    json.dumps(selftest, indent=2, sort_keys=True) + "\n"
                )
                print(f"\nwrote selftest report {out}")
            if not args.no_ledger:
                _append_selftest_record(selftest)
            continue
        if target in ABLATIONS:
            ABLATIONS[target]()
            continue
        fn = FIGURES[target]
        if args.cols and target != "fig11":
            result = fn(tuple(args.cols))
        else:
            result = fn()
        if not args.no_ledger:
            _append_sweep_record(target, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
