"""CLI: ``python -m repro.workloads {list,validate,replay,record,fuzz}``.

``list`` prints the checked-in library with per-workload summaries.
``validate`` checks workload JSON files and reports rank/op-indexed
errors.  ``replay`` lowers a workload onto the simulator (any scheme or
cost-model preset) and prints the simulated time.  ``record`` captures
one of the example patterns into a fresh trace JSON.  ``fuzz`` runs the
time-boxed grammar fuzzer and writes any counterexample as a workload
artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.schemes import SCHEME_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Workload IR: trace replay, recording, fuzzing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="checked-in workload library")

    val = sub.add_parser("validate", help="validate workload JSON files")
    val.add_argument("files", nargs="+", metavar="FILE")

    rep = sub.add_parser("replay", help="replay a workload JSON file")
    rep.add_argument("file", metavar="FILE")
    rep.add_argument(
        "--scheme", default=None, choices=SCHEME_NAMES,
        help="override the workload's datatype scheme",
    )
    rep.add_argument(
        "--preset", default=None,
        help="cost-model preset (default: paper's mellanox_2003)",
    )

    rec = sub.add_parser("record", help="record an example pattern")
    rec.add_argument("pattern", metavar="PATTERN")
    rec.add_argument(
        "--scheme", default="bc-spup", choices=SCHEME_NAMES,
        help="scheme to record under (default: bc-spup)",
    )
    rec.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output JSON path (default: <pattern>.json)",
    )

    fuzz = sub.add_parser("fuzz", help="time-boxed grammar fuzzing")
    fuzz.add_argument(
        "--seconds", type=float, default=60.0,
        help="time budget (default: 60)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; chunk k uses seed+k (default: 0)",
    )
    fuzz.add_argument(
        "--artifact", default=None, metavar="DIR",
        help="directory for counterexample workload JSON",
    )
    return parser


def _cmd_list(args) -> int:
    from repro.workloads.library import library_names, load_workload

    names = library_names()
    if not names:
        print("library is empty")
        return 0
    for name in names:
        wl = load_workload(name)
        ops = sum(len(r) for r in wl.ranks)
        print(f"{name:28s} nranks={wl.nranks} ops={ops:5d} types={len(wl.types)}")
    return 0


def _cmd_validate(args) -> int:
    from repro.workloads.validate import validate_text

    bad = 0
    for path in args.files:
        try:
            validate_text(Path(path).read_text())
        except Exception as exc:  # noqa: BLE001 - report and continue
            print(f"{path}: FAIL: {exc}")
            bad += 1
        else:
            print(f"{path}: ok")
    return 1 if bad else 0


def _cmd_replay(args) -> int:
    from repro.ib.costmodel import get_preset
    from repro.workloads import parse, replay

    workload = parse(Path(args.file).read_text())
    cost_model = get_preset(args.preset) if args.preset else None
    result = replay(workload, scheme=args.scheme, cost_model=cost_model)
    print(
        f"{workload.name}: scheme={result.scheme} "
        f"time={result.time_us:.1f} us"
    )
    return 0


def _cmd_record(args) -> int:
    from repro.workloads import to_json
    from repro.workloads.patterns import pattern_names, record_pattern

    if args.pattern not in pattern_names():
        print(
            f"unknown pattern {args.pattern!r}; "
            f"choose from {', '.join(pattern_names())}"
        )
        return 2
    rec = record_pattern(args.pattern, scheme=args.scheme)
    out = Path(args.output or f"{args.pattern}.json")
    out.write_text(to_json(rec.workload))
    print(f"{out}: recorded {args.pattern} ({rec.time_us:.1f} us simulated)")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.workloads.fuzz import fuzz_time_boxed

    report = fuzz_time_boxed(
        args.seconds, seed=args.seed, artifact_dir=args.artifact
    )
    print(
        f"fuzz: {report.examples} examples in {report.chunks} chunks "
        f"({report.elapsed:.1f} s)"
    )
    if report.ok:
        print("no counterexample found")
        return 0
    print(f"COUNTEREXAMPLE: {report.failure['error']}")
    if report.failure["path"]:
        print(f"workload written to {report.failure['path']}")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"list": _cmd_list, "validate": _cmd_validate,
                "replay": _cmd_replay, "record": _cmd_record,
                "fuzz": _cmd_fuzz}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
