#!/usr/bin/env python3
"""Compare two hostbench reports, A (parent) against B (change).

    python3 hostbench/compare.py A.json B.json

A and B are report files of ``run.py`` (``--workload all --out A.json``,
or one workload's).  Per workload and end-to-end metric: how much worse B
reads, against the metric's bound in BENCHMARK.json.  Exits 1 on a
regression or on an exact metric that changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: a bound this small declares the metric exact: any change is a change
EXACT = 1e-6


def verdict(a: float, b: float, a_range, b_range, better: str, bound: float):
    """``(share by which B is worse than A, verdict)``.

    Beyond the bound, B is a ``regression`` or an ``improvement`` only if
    the two sides' ranges (pass quartiles; for ``setup_s`` the least and
    greatest sample) overlap by no more than the bound; otherwise the
    runs cannot tell, and the verdict is ``unresolved``.
    """
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if bound <= EXACT:
        return worse, "same" if a == b else "CHANGED"
    if abs(worse) <= bound:
        return worse, "within bound"
    overlap = min(a_range[1], b_range[1]) - max(a_range[0], b_range[0])
    if overlap / a > bound:
        return worse, "unresolved"
    return worse, "REGRESSION" if worse > 0 else "improvement"


def ranges(report: dict, metric: str):
    if metric == "setup_s":
        samples = report["setup_samples_s"]
        return min(samples), max(samples)
    if metric == "host_us_per_msg":
        quartiles = report["pass_us_per_msg"]
        return quartiles["q1"], quartiles["q3"]
    return None


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    a_all, b_all = (json.loads(Path(p).read_text())["workloads"] for p in argv[1:])
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_all.get(workload), b_all.get(workload)
        if not a or not b or a["trace"] or b["trace"]:
            continue
        print(f"{workload}: passes A {a['passes']}, B {b['passes']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = (r["metrics"][name]["value"] for r in (a, b))
            worse, word = verdict(
                va, vb, ranges(a, name), ranges(b, name),
                metric["better"], metric["bound"],
            )
            bad |= word in ("REGRESSION", "CHANGED")
            print(
                f"  {name:18s} A {va:14.4f}  B {vb:14.4f}  worse by "
                f"{worse:+8.2%} (bound {metric['bound']:.0%})  {word}"
            )
        for cell, ca in a["cells"].items():
            cb = b["cells"].get(cell)
            if cb is None:
                print(f"    {cell:34s} only in A")
                continue
            fa, fb = ca["floor_us_per_msg"], cb["floor_us_per_msg"]
            exact = (ca["events"], ca["sim_us"]) == (cb["events"], cb["sim_us"])
            bad |= not exact
            print(
                f"    {cell:34s} floor A {fa:11.1f}  B {fb:11.1f} us/msg "
                f"{(fb - fa) / fa:+7.2%}"
                + ("" if exact else "  events or sim_us CHANGED")
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
