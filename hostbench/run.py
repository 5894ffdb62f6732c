#!/usr/bin/env python3
"""hostbench: how fast the simulator itself runs, end to end and per layer.

    python3 hostbench/run.py --workload pingpong_latency --seed 1 \
        --seconds 18 --trace 0

Host time is wall time of the measuring processes; sim time is simulated
us.  The last line of standard output is the result as one JSON object.
README.md defines every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])

#: fresh processes an untraced run measures in, one after the other; each
#: gives one set-up sample and its share of --seconds of timed passes
WORKERS = 3


def hermetic_env() -> None:
    """Keep anything the library might write inside hostbench/out, and
    switch off what the environment could switch on."""
    OUT.mkdir(exist_ok=True)
    for var in ("REPRO_LEDGER_DIR", "REPRO_RESULTS_DIR", "REPRO_CACHE_DIR"):
        os.environ[var] = str(OUT / "hermetic")
    for var in ("REPRO_FAULT_PROFILE", "REPRO_FAULT_SEED", "REPRO_HOST_PROFILE"):
        os.environ.pop(var, None)


def run_worker(job: dict) -> tuple[float, dict]:
    """Start one measuring process and wait for it.  Returns the seconds
    from its launch to the end of its cold pass, and what it measured."""
    start = perf_counter()
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True,
    )
    worker.stdout.readline()  # READY: the cold pass is over
    setup_s = perf_counter() - start
    rest, _ = worker.communicate()
    if worker.returncode:
        sys.exit(f"hostbench: a measuring process failed ({worker.returncode})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def end_to_end(parts, setups, totals) -> tuple[dict, dict]:
    """``(metrics, report fields)`` of an untraced run."""
    messages, events, sim_us, attempted, failed, floor_ns = totals
    pass_us = [ns / 1e3 / messages for p in parts for ns in p["pass_ns"]]
    q1, median, q3 = statistics.quantiles(pass_us, n=4)
    metrics = {
        "setup_s": statistics.median(setups),
        "host_us_per_msg": sum(floor_ns) / 1e3 / messages,
        "events_per_msg": events / messages,
        "sim_us_per_msg": sim_us / messages,
        "delivered_share": 1.0 - failed / attempted,
    }
    fields = {
        "passes": len(pass_us),
        "setup_samples_s": setups,
        "pass_us_per_msg": {"q1": q1, "median": median, "q3": q3},
        "cells": {
            c["name"]: {
                "messages": c["messages"],
                "floor_us_per_msg": ns / 1e3 / c["messages"],
                "events": c["events"],
                "sim_us": c["sim_us"],
            }
            for c, ns in zip(parts[0]["cells"], floor_ns)
        },
    }
    print(
        f"  {len(pass_us)} timed passes in {len(parts)} processes, {messages} "
        f"messages a pass; pass median {median:.1f} us/msg (quartiles "
        f"{q1:.1f} {q3:.1f}), failed_share {failed / attempted:g}"
    )
    return metrics, fields


def per_layer(part, totals) -> tuple[dict, dict]:
    """``(metrics, report fields)`` of a traced run."""
    messages, events, sim_us, _attempted, _failed, floor_ns = totals
    cells = part["cells"]
    spans = part["span_floor_ns"]
    total = sum(spans.values()) - spans.get("pass", 0)
    counters = {
        key: sum(c["counters"][key] for c in cells) for key in cells[0]["counters"]
    }

    def ratio(hits: str, misses: str) -> float:
        lookups = counters[hits] + counters[misses]
        return counters[hits] / lookups if lookups else 0.0

    # trace_replay has no run span of its own: replay's self time (replay
    # minus the Cluster it builds) stands in for it
    run_ns = spans.get("run", 0) + spans.get("replay", 0)
    metrics = {
        "mpi.world.build_share": spans.get("cluster_build", 0) / total,
        "simulator.run_share": run_ns / total,
        "datatypes.build_share": spans.get("dt_build", 0) / total,
        "workloads.parse_share": spans.get("parse", 0) / total,
        "hostbench.verify_share": spans.get("verify", 0) / total,
        "simulator.run_ns_per_event": run_ns / events,
        "hostbench.trace_overhead_pct": (
            100.0 * (sum(part["traced_floor_ns"]) / sum(floor_ns) - 1.0)
        ),
        "host.peak_rss_mb": part["peak_rss_mb"],
        "ib.hca.descriptors_per_msg": counters["descriptors"] / messages,
        "ib.hca.bytes_injected_per_msg": counters["bytes_injected"] / messages,
        "ib.node.cpu_busy_sim_us_per_msg": counters["cpu_busy_us"] / messages,
        "registration.cache_hit_ratio": ratio("reg_cache_hits", "reg_cache_misses"),
        "mpi.datatype_cache.hit_ratio": ratio("dt_cache_hits", "dt_cache_misses"),
        # computed from the layouts, not measured
        "datatypes.pack.blocks_per_msg": sum(c["blocks"] for c in cells) / messages,
        **part["ladder"],
    }
    fields = {
        "traced_passes": part["traced_passes"],
        "untraced_passes": len(part["pass_ns"]),
        # must equal an untraced run's: tracing may not change behaviour
        "events_per_msg": events / messages,
        "sim_us_per_msg": sim_us / messages,
        "span_columns": part["span_columns"],
        "spans": part["spans"],
    }
    print(
        f"  traced run: {part['traced_passes']} traced and "
        f"{len(part['pass_ns'])} untraced passes, then the ladder"
    )
    return metrics, fields


def measure(workload: str, args) -> tuple[dict, dict]:
    """One run of one workload: ``(report, metrics)``."""
    count = 1 if args.trace or args.quick else WORKERS
    job = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds / count, "quick": args.quick,
        "corrupt": args.self_test_corrupt,
    }
    setups, parts = zip(*(run_worker(job) for _ in range(count)))

    cells = parts[0]["cells"]
    exact = [[(c["name"], c["events"], c["sim_us"]) for c in p["cells"]] for p in parts]
    if any(other != exact[0] for other in exact[1:]):
        sys.exit("hostbench: processes disagree on events or simulated time")
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    totals = (
        sum(c["messages"] for c in cells),
        sum(c["events"] or 0 for c in cells),
        sum(c["sim_us"] or 0.0 for c in cells),
        attempted,
        failed,
        # per cell, the least host ns any pass of any process took
        [min(ns) for ns in zip(*([c["floor_ns"] for c in p["cells"]] for p in parts))],
    )
    print(f"hostbench {workload}: seed {args.seed}, {len(cells)} cells")
    if args.trace:
        metrics, fields = per_layer(parts[0], totals)
    else:
        metrics, fields = end_to_end(parts, setups, totals)
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "messages_per_pass": totals[0],
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        **fields,
    }
    return report, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="makes the payload bytes")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced passes and the layer ladder; "
                             "prints the per-layer metrics")
    parser.add_argument("--out", help="report file (default: under hostbench/out/)")
    parser.add_argument("--quick", action="store_true",
                        help="2 passes of the smallest cells (schema test)")
    parser.add_argument("--self-test-corrupt", action="store_true",
                        help="flip one delivered byte: the run must fail")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"hostbench: no simulator under {ROOT / 'src'}; run from a checkout")
    hermetic_env()

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    reports = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report, metrics = measure(workload, args)
        if set(metrics) != set(units):
            sys.exit(
                "hostbench: BENCHMARK.json and the run disagree on metrics: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
        report["metrics"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        }
        for name, entry in report["metrics"].items():
            print(f"  {name:46s} {entry['value']:16.6f} {entry['unit']}")
        reports[workload] = report
    suffix = "-trace" if args.trace else ""
    path = Path(args.out or OUT / f"{args.workload}-seed{args.seed}{suffix}.json")
    path.write_text(json.dumps({"workloads": reports}) + "\n")
    if args.workload != "all":
        print(json.dumps({
            key: report[key] for key in ("correct", "attempted", "failed", "metrics")
        }))
    return 0 if all(report["correct"] for report in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
