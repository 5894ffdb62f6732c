"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro.bench fig08 fig09          # specific rows of the table
    python -m repro.bench all                  # every row + overlap (~70 s cold)
    python -m repro.bench all -j 0             # ... fanned out over all cores
    python -m repro.bench ablations skampi     # the rows beyond the paper
    python -m repro.bench fig08 --cols 64 2048 # restricted column sweep
    python -m repro.bench overlap              # Figure-3 overlap analysis
    python -m repro.bench claims               # verdicts from results/*.csv;
                                               # rewrites EXPERIMENTS.md's tables
    python -m repro.bench selftest             # cold/warm sweep + cache check
    python -m repro.bench selftest --json report.json

Targets are the rows of :data:`repro.bench.sweeps.SWEEPS` that own a
CSV.  Tables print to stdout; CSVs land in ``results/``.  Every row runs
through the parallel executor (``-j``/``$REPRO_BENCH_JOBS`` workers) and
the content-addressed result cache under ``.repro-cache/`` — pass
``--fresh`` to ignore cached cells.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench import claims, parallel
from repro.bench.overlap import overlap_report
from repro.bench.runner import traced_oneway
from repro.bench.sweeps import SWEEPS, run_sweep
from repro.bench.workloads import column_vector
from repro.schemes import PAPER_SCHEMES

#: the rows with a CLI target, and the ``ablations`` group among them
ROWS = [name for name, row in SWEEPS.items() if row.csv]
ABLATIONS = [n for n in ROWS if SWEEPS[n].csv.startswith("results/ablation_")]


def _run_overlap(cols: int = 1024) -> None:
    w = column_vector(cols)
    print(
        f"\nOverlap analysis (Figure 3), single {w.nbytes >> 10} KB vector "
        f"message, {cols} columns:"
    )
    for scheme in PAPER_SCHEMES:
        print(" ", overlap_report(traced_oneway(scheme, w.datatype)).describe())


def _run_claims() -> bool:
    """Print every claim's verdict on ``results/*.csv`` and rewrite the claim
    blocks of ``EXPERIMENTS.md``; False when a verdict is not the expected one."""
    tables = claims.load(".")
    outcomes = [(c, claims.evaluate(c, *tables[c.sweep])) for c in claims.CLAIMS]
    print("\n".join(o.message for _, o in outcomes))
    doc = Path("EXPERIMENTS.md")
    doc.write_text(claims.render(doc.read_text(), tables))
    return all(o.verdict == c.expect for c, o in outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures on the "
        "simulated InfiniBand cluster.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        choices=ROWS + ["all", "ablations", "overlap", "claims", "selftest"],
        help="sweep rows, groups of them, 'claims' (every row of the claims "
        "table against results/*.csv) or 'selftest' (cold/warm sweep timing)",
    )
    parser.add_argument(
        "--cols",
        type=int,
        nargs="+",
        default=None,
        help="restrict the sweep of every row whose x axis is columns",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweeps (0 = all cores; default "
        "$REPRO_BENCH_JOBS or 1)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore the .repro-cache result cache and re-measure every cell",
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
    for target in args.targets:
        if args.cols and target in SWEEPS and SWEEPS[target].axis != "cols":
            parser.error(
                f"--cols does not apply to {target}: its x axis is "
                f"{SWEEPS[target].axis}"
            )
    targets = list(args.targets)
    if "all" in targets:
        targets = ROWS + ["overlap"]
    elif "ablations" in targets:
        targets = [t for t in targets if t != "ablations"] + ABLATIONS
    for target in targets:
        if target == "overlap":
            _run_overlap()
            continue
        if target == "claims":
            if not _run_claims():
                return 1
            continue
        if target == "selftest":
            import json

            from repro.bench.selftest import format_selftest, run_selftest

            selftest = run_selftest(jobs=args.jobs)
            print(format_selftest(selftest))
            if args.json is not None:
                out = Path(args.json)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(
                    json.dumps(selftest, indent=2, sort_keys=True) + "\n"
                )
                print(f"\nwrote selftest report {out}")
            continue
        run_sweep(target, args.cols if SWEEPS[target].axis == "cols" else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
