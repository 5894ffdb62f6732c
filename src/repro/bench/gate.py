"""Benchmark regression gate for CI.

Measures per-scheme simulated performance at a few fig08 (ping-pong
latency) and fig09 (streaming bandwidth) workload points, writes the
numbers to a JSON report (``--out PATH``), and compares them against the
checked-in ``benchmarks/baseline.json``: any metric more than ``--tolerance``
(default 10%) *worse* than baseline fails the run.

The metrics are simulated and deterministic, so in the absence of
cost-model or protocol changes the measured numbers equal the baseline
exactly; the tolerance only absorbs intentional small re-calibrations.
Fault injection is disabled for the duration of the measurement —
faulty timings are a different experiment (see ``docs/FAULTS.md``).
Host speed is not gated here: that is ``hostbench/``'s measurement.

``--write-baseline`` stores, beside each cell's value, its critical-path
attribution (copy / wire / descriptor / registration / resource-wait /
protocol-wait).  On failure the **regression explainer**
(:mod:`repro.obs.regress`) profiles the regressed cells only, diffs them
against that stored attribution and names which category moved and by
how much — from a fresh clone, with no run history.

Usage::

    python -m repro.bench.gate                        # measure + gate
    python -m repro.bench.gate --out gate.json        # ... and keep the report
    python -m repro.bench.gate --write-baseline       # refresh baseline
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from repro.bench.parallel import Cell, run_cells
from repro.bench.sweeps import SWEEPS
from repro.schemes import PAPER_SCHEMES

__all__ = [
    "collect",
    "compare",
    "load_baseline",
    "main",
    "write_profile_artifacts",
]

#: schemes gated in CI (the paper's four implemented schemes)
SCHEMES = PAPER_SCHEMES
#: column-vector sizes: one small (latency-dominated, fig08's left edge)
#: and one large (bandwidth-dominated, fig09's right half)
COLUMNS = (64, 512)

DEFAULT_BASELINE = Path("benchmarks/baseline.json")

#: the representative profile CI attaches as an artifact (fig09, 64 KB)
PROFILE_WORKLOAD = ("fig09", 65536)


@contextlib.contextmanager
def _fault_free() -> Iterator[None]:
    """Strip the fault-injection environment for the duration of a gate
    run and put it back.  Everything :func:`main` measures, profiles or
    records is the fault-free cost model (worker processes inherit the
    stripped copy), but a caller's profile must outlive the call — the
    CI fault matrix runs ``main`` in-process, mid-session."""
    saved = {
        var: os.environ.pop(var, None)
        for var in ("REPRO_FAULT_PROFILE", "REPRO_FAULT_SEED")
    }
    try:
        yield
    finally:
        os.environ.update({k: v for k, v in saved.items() if v is not None})


def collect(jobs: int | None = None) -> dict:
    """Measure every gated metric; returns the report dict.

    Keys are ``fig08/<scheme>/cols=<n>`` (one-way latency, us, lower is
    better) and ``fig09/<scheme>/cols=<n>`` (streaming bandwidth, MB/s,
    higher is better).  Cells fan out over ``jobs`` worker processes;
    the result cache is bypassed — a regression gate always measures
    fresh, whatever ``.repro-cache/`` holds.
    """
    cells = [
        Cell(fig, scheme, cols)
        for cols in COLUMNS
        for scheme in SCHEMES
        for fig in ("fig08", "fig09")
    ]
    values = run_cells(cells, jobs=jobs, use_cache=False)
    better = {"us": "lower", "MB/s": "higher"}
    metrics = {
        f"{c.figure}/{c.series}/cols={c.x}": {
            "value": values[c],
            "unit": SWEEPS[c.figure].unit,
            "better": better[SWEEPS[c.figure].unit],
        }
        for c in cells
    }
    return {
        "schemes": list(SCHEMES),
        "columns": list(COLUMNS),
        "metrics": metrics,
    }


def load_baseline(path: Path) -> dict:
    """Read and validate the baseline file.

    Raises :class:`SystemExit` with an actionable message — never a bare
    traceback — when the file is missing, unparsable, or has no metrics.
    """
    if not path.exists():
        raise SystemExit(
            f"benchmark gate: no baseline at {path}.\n"
            f"Run `python -m repro.bench.gate --write-baseline` (on a known-"
            f"good tree) and commit the result."
        )
    try:
        baseline = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"benchmark gate: cannot read baseline {path}: {exc}.\n"
            f"Regenerate it with `python -m repro.bench.gate --write-baseline`."
        )
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("metrics"), dict
    ):
        raise SystemExit(
            f"benchmark gate: baseline {path} has no 'metrics' section.\n"
            f"Regenerate it with `python -m repro.bench.gate --write-baseline`."
        )
    return baseline


def missing_entries(report: dict, baseline: dict) -> list[str]:
    """Requested metric keys the baseline has no (usable) entry for."""
    base_metrics = baseline.get("metrics", {})
    return [
        key
        for key in report["metrics"]
        if not isinstance(base_metrics.get(key), dict)
        or "value" not in base_metrics[key]
    ]


def compare(
    report: dict, baseline: dict, tolerance: float
) -> list[tuple[str, str]]:
    """``(metric key, message)`` per regression (empty when the gate passes)."""
    failures = []
    base_metrics = baseline.get("metrics", {})
    for key, entry in report["metrics"].items():
        base = base_metrics.get(key)
        if not isinstance(base, dict) or "value" not in base:
            continue  # reported separately by missing_entries()
        value, ref = entry["value"], base["value"]
        if ref == 0:
            continue
        if entry["better"] == "lower":
            change = (value - ref) / ref
        else:
            change = (ref - value) / ref
        if change > tolerance:
            failures.append((
                key,
                f"{key}: {value:.2f} {entry['unit']} vs baseline "
                f"{ref:.2f} ({change * 100:.1f}% worse, "
                f"tolerance {tolerance * 100:.0f}%)",
            ))
    return failures


def write_profile_artifacts(outdir: Path) -> Path:
    """Run the representative critical-path profile; write CI artifacts.

    Profiles :data:`PROFILE_WORKLOAD` under every scheme, writing the
    ranked bottleneck tables to ``<outdir>/bottlenecks.txt`` and one
    annotated Chrome trace (spans + resource counter tracks) per scheme to
    ``<outdir>/trace.<scheme>.<size>.json``.
    Returns the report path.
    """
    from repro.obs.profile import run_profile
    from repro.schemes import SCHEME_NAMES

    outdir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    workload, nbytes = PROFILE_WORKLOAD
    run_profile(
        workload=workload,
        nbytes=nbytes,
        schemes=SCHEME_NAMES,
        chrome_out=str(outdir / "trace"),
        print_fn=lambda *parts: lines.append(" ".join(str(p) for p in parts)),
    )
    report = outdir / "bottlenecks.txt"
    report.write_text("\n".join(lines) + "\n")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    ap.add_argument("--out", type=Path, default=None, metavar="PATH",
                    help="write the measured report to this JSON file")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed relative regression (default 0.10)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="overwrite the baseline with fresh measurements "
                         "and each cell's critical-path attribution")
    ap.add_argument("--profile-dir", type=Path, default=None,
                    help="also run the representative critical-path profile "
                         "(fig09, 64 KB, every scheme) and write the "
                         "bottleneck report + annotated Chrome traces here")
    ap.add_argument("-j", "--jobs", type=int, default=None,
                    help="worker processes for the measurement cells "
                         "(0 = all cores; default $REPRO_BENCH_JOBS or 1)")
    ap.add_argument("--explain-out", type=Path, default=None, metavar="PATH",
                    help="write the regression explanation (markdown/text) "
                         "here; on a pass the file records that no metric "
                         "regressed")
    args = ap.parse_args(argv)
    with _fault_free():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    report = collect(jobs=args.jobs)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.profile_dir is not None:
        path = write_profile_artifacts(args.profile_dir)
        print(f"wrote profile artifacts under {path.parent}")
    if args.write_baseline:
        from repro.obs.regress import collect_attributions

        attribution = collect_attributions(report["metrics"])
        baseline = dict(report, metrics={
            key: dict(entry, attribution=attribution[key])
            for key, entry in report["metrics"].items()
        })
        args.baseline.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline {args.baseline}")
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    missing = missing_entries(report, baseline)
    failures = compare(report, baseline, args.tolerance)
    base_metrics = baseline.get("metrics", {})
    for key, entry in sorted(report["metrics"].items()):
        base = base_metrics.get(key)
        ref = (
            f"{base['value']:.2f}"
            if isinstance(base, dict) and "value" in base
            else "n/a"
        )
        print(f"  {key:<32} {entry['value']:10.2f} {entry['unit']:<5} "
              f"(baseline {ref})")
    if missing:
        print(
            f"\nbenchmark gate: baseline {args.baseline} has no entry for "
            f"{len(missing)} requested metric(s):",
            file=sys.stderr,
        )
        for key in missing:
            print(f"  {key}", file=sys.stderr)
        print(
            "If these metrics are newly added, refresh the baseline with "
            "`python -m repro.bench.gate --write-baseline` and commit it.",
            file=sys.stderr,
        )
        return 2

    if failures:
        from repro.obs.regress import explain_regressions, format_regressions

        print("\nbenchmark regressions:", file=sys.stderr)
        for _key, msg in failures:
            print(f"  {msg}", file=sys.stderr)
        explanation = format_regressions(
            explain_regressions([key for key, _msg in failures], base_metrics)
        )
        print("", file=sys.stderr)
        print(explanation, file=sys.stderr)
        if args.explain_out is not None:
            body = ["# benchmark regressions", ""]
            body += [f"- {msg}" for _key, msg in failures]
            body += ["", "```", explanation, "```"]
            args.explain_out.write_text("\n".join(body) + "\n")
        return 1
    if args.explain_out is not None:
        args.explain_out.write_text(
            "# benchmark gate passed\n\nNo metric regressed beyond "
            "tolerance.\n"
        )
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
