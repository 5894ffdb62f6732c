"""CLI: ``python -m repro.guidelines {check,presets} [options]``.

``check`` sweeps every (scheme x preset x workload) cell, classifies
the guideline catalogue (pass / violation / crossover-shift), explains
violations via the predicted-vs-simulated cost-model machinery, applies
the checked-in waiver file, and exits nonzero when any *unwaived*
violation remains — the CI gate.

``presets`` lists the registered cost-model presets with their
provenance lines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.guidelines import harness, report, waivers as waivers_mod
from repro.ib.costmodel import preset_names, preset_provenance


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.guidelines",
        description="Cross-hardware MPI performance-guidelines checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="sweep, classify, waive, gate (nonzero on violation)"
    )
    check.add_argument(
        "--preset",
        action="append",
        dest="presets",
        metavar="NAME",
        default=None,
        help=(
            "cost-model preset to sweep (repeatable; default: "
            + ", ".join(harness.DEFAULT_PRESETS)
            + ")"
        ),
    )
    check.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable report here",
    )
    check.add_argument(
        "--markdown",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the markdown summary table here (CI job summary)",
    )
    check.add_argument(
        "--waivers",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "expectations file of known, explained violations "
            f"(default {waivers_mod.DEFAULT_WAIVERS_PATH})"
        ),
    )
    check.add_argument(
        "--write-waivers",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "draft a waiver entry per unwaived violation into PATH "
            "(reasons left as TODO) and exit 0"
        ),
    )
    check.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all cores; default $REPRO_BENCH_JOBS or 1)",
    )
    check.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache (measure fresh)",
    )
    check.add_argument(
        "--no-explain",
        action="store_true",
        help="skip the per-violation cost-category attribution",
    )

    sub.add_parser("presets", help="list cost-model presets with provenance")
    return parser


def run_presets() -> int:
    for name in preset_names():
        line = preset_provenance(name)
        print(f"{name:<22} {line}")
    return 0


def run_checkcmd(args) -> int:
    presets = tuple(args.presets) if args.presets else harness.DEFAULT_PRESETS
    results = harness.run_check(
        presets=presets,
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        explain_violations=not args.no_explain,
    )

    waiver_path = args.waivers or waivers_mod.DEFAULT_WAIVERS_PATH
    waivers = waivers_mod.load_waivers(waiver_path)
    unused = waivers_mod.apply_waivers(results, waivers)

    if args.write_waivers is not None:
        drafts = list(waivers) + waivers_mod.waivers_from_results(results)
        out = waivers_mod.save_waivers(args.write_waivers, drafts)
        print(f"wrote {len(drafts)} waiver(s) to {out}")
        return 0

    print(report.format_text(results, presets))
    if unused:
        print(f"\nnote: {len(unused)} waiver(s) matched nothing (prune?):")
        for w in unused:
            print(f"  {w.guideline}/{w.preset}/{w.scheme}: {w.reason}")

    if args.json is not None:
        report.write_json(args.json, results, presets)
        print(f"wrote {args.json}")
    if args.markdown is not None:
        args.markdown.write_text(report.format_markdown(results, presets))
        print(f"wrote {args.markdown}")

    return 1 if any(r.failing for r in results) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        return run_presets()
    return run_checkcmd(args)


if __name__ == "__main__":
    sys.exit(main())
