"""CLI: ``python -m repro.obs {report,profile,hostprof,trends}``.

``report`` prints the per-scheme time breakdown table (``--format json``
for the machine-readable document) and optionally exports Chrome trace
JSON and a metrics CSV snapshot.  ``profile`` runs the critical-path
profiler: a ranked bottleneck table per scheme and an annotated Chrome
trace with resource counter tracks.  ``hostprof`` runs the
host-time profiler: ranked ns/event hotspot tables per scheme, host-time
counter tracks in the Chrome trace, an optional cProfile deep mode, and
one ``--artifacts`` directory holding all of it plus collapsed stacks
for flamegraphs.  ``trends`` renders the committed hostbench reports
(``benchmarks/history/``) as per-metric trajectory tables with
sparklines.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.workloads import PROBE_FIGURES
from repro.obs.report import DEFAULT_SCHEMES, run_report
from repro.obs.trends import HISTORY, run_trends


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports for the simulated MPI/IB stack",
    )
    # what the three single-transfer probes share: every one can export a
    # Chrome trace per scheme; profile and hostprof also take the same
    # positional workload / schemes and one --size
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--chrome-trace",
        metavar="PREFIX",
        default=None,
        help=(
            "write one Chrome trace JSON per scheme to "
            "PREFIX.<scheme>.<size>.json with resource counter tracks "
            "(hostprof adds host-time ones)"
        ),
    )
    probe = argparse.ArgumentParser(add_help=False, parents=[traced])
    probe.add_argument(
        "workload",
        choices=PROBE_FIGURES,
        help="figure workload supplying the datatype",
    )
    probe.add_argument(
        "schemes",
        nargs="*",
        default=[],
        help=(
            f"schemes to run (default: {' '.join(DEFAULT_SCHEMES)} for "
            "profile, all for hostprof)"
        ),
    )
    probe.add_argument(
        "--size",
        type=int,
        default=65536,
        help="target message size in bytes (default: 65536)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser(
        "report",
        parents=[traced],
        help="per-scheme copy/wire/overlap/registration breakdown",
    )
    rep.add_argument(
        "--workload",
        default="fig09",
        choices=PROBE_FIGURES,
        help="figure workload supplying the datatype (default: fig09)",
    )
    rep.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[65536],
        help="target message sizes in bytes (default: 65536)",
    )
    rep.add_argument(
        "--schemes",
        nargs="+",
        default=list(DEFAULT_SCHEMES),
        help=f"schemes to compare (default: {' '.join(DEFAULT_SCHEMES)})",
    )
    rep.add_argument(
        "--metrics-csv",
        metavar="PATH",
        default=None,
        help="write the final run's metric snapshot as CSV",
    )
    rep.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: aligned text tables (default) or one JSON "
        "document with the same data",
    )
    sub.add_parser(
        "profile",
        parents=[probe],
        help="critical-path bottleneck attribution per scheme",
    )
    host = sub.add_parser(
        "hostprof",
        parents=[probe],
        help="host-time attribution: where engine wall-clock ns/event go",
    )
    host.add_argument(
        "--iters",
        type=int,
        default=4,
        help="transfers per scheme (amortizes cold caches; default: 4)",
    )
    host.add_argument(
        "--deep",
        action="store_true",
        help="also print a function-level cProfile listing per scheme",
    )
    host.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help=(
            "write the bundle under DIR: hotspots.txt, "
            "stacks.<scheme>.collapsed, trace.<scheme>.<size>.json, "
            "hostprof.json and summary.md (overrides --chrome-trace)"
        ),
    )
    trd = sub.add_parser(
        "trends",
        help="per-metric trajectories over benchmarks/history/BENCH_<n>.json",
    )
    trd.add_argument(
        "--history",
        metavar="DIR",
        default=HISTORY,
        help=f"directory of committed hostbench reports (default: {HISTORY})",
    )
    trd.add_argument(
        "--metric",
        metavar="GLOB",
        action="append",
        default=None,
        help="only metrics matching this glob (repeatable), "
        "e.g. --metric 'stream_copy/*'",
    )
    trd.add_argument(
        "--last",
        type=int,
        default=20,
        help="show at most the last N reports per metric (default 20)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        run_report(
            workload=args.workload,
            sizes=args.sizes,
            schemes=args.schemes,
            chrome_out=args.chrome_trace,
            metrics_out=args.metrics_csv,
            fmt=args.format,
        )
        return 0
    if args.command == "trends":
        return run_trends(args.history, patterns=args.metric, last=args.last)
    probe = dict(workload=args.workload, nbytes=args.size, schemes=args.schemes)
    if args.command == "profile":
        from repro.obs.profile import run_profile

        run_profile(chrome_out=args.chrome_trace, **probe)
        return 0
    # hostprof, the one command left
    from repro.obs.hostprof import run_hostprof

    run_hostprof(
        iters=args.iters,
        chrome_out=args.chrome_trace,
        outdir=args.artifacts,
        deep=args.deep,
        **probe,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
