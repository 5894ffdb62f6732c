"""One measuring process of a hostbench run (``run.py`` starts it).

Builds the workload, runs the cold pass, prints ``READY`` (the parent
stops the set-up clock there), runs timed passes for the seconds it was
given and prints what it measured as one JSON object.  A traced worker
alternates traced and untraced passes and then climbs the layer ladder.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
READY = "READY"

#: share of its seconds a traced worker spends on passes; the ladder follows
TRACED_PASS_SHARE = 0.5

#: per-rank counters of ``Cluster.stats()`` summed into per-layer counts
COUNTERS = (
    "descriptors", "bytes_injected", "cpu_busy_us", "reg_cache_hits",
    "reg_cache_misses", "dt_cache_hits", "dt_cache_misses",
)


class Tally:
    """Messages attempted and failed over every pass of the process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(cells, spans, tally: Tally, pass_no: int, reference=None) -> list:
    """Every cell once, in order.  Returns per cell ``(host ns, events,
    sim us, counters)``; ``reference`` is the cold pass's return value,
    which every later pass must reproduce."""
    samples = []
    spans.pass_no = pass_no
    with spans.span("pass"):
        for i, cell in enumerate(cells):
            gc.collect()
            spans.cell = cell.name
            tally.attempted += cell.messages
            start = perf_counter_ns()
            try:
                with spans.span("cell"):
                    outcome = cell.execute(spans)
            except Exception:
                # the run goes on, so that the share of failures is known
                traceback.print_exc()
                tally.failed += cell.messages
                samples.append(
                    (perf_counter_ns() - start, None, None, dict.fromkeys(COUNTERS, 0))
                )
                continue
            ns = perf_counter_ns() - start
            tally.failed += outcome.failed
            stats = outcome.cluster.stats()
            counters = {key: sum(stats[key]) for key in COUNTERS}
            if reference is not None and (
                (outcome.events, outcome.sim_us) != reference[i][1:3]
            ):
                sys.exit(
                    f"hostbench: cell {cell.name} is not deterministic: pass "
                    f"{pass_no} gave events={outcome.events} "
                    f"sim_us={outcome.sim_us!r}, the cold pass gave "
                    f"events={reference[i][1]} sim_us={reference[i][2]!r}"
                )
            samples.append((ns, outcome.events, outcome.sim_us, counters))
    spans.cell = ""
    return samples


def floors(passes: list) -> list:
    """Per cell, the least host ns any pass took."""
    return [min(cell_ns) for cell_ns in zip(*([s[0] for s in p] for p in passes))]


def span_floors(spans) -> dict:
    """``{span name: ns}``: per cell the least self time of each span name
    over the traced passes, summed over cells."""
    per_cell: dict = {}
    for row, self_ns in zip(spans.rows, spans.self_times()):
        name, _start, _end, _parent, cell, pass_no = row
        if cell:
            per_pass = per_cell.setdefault((cell, name), {})
            per_pass[pass_no] = per_pass.get(pass_no, 0) + self_ns
    out: dict = {}
    for (_cell, name), per_pass in per_cell.items():
        out[name] = out.get(name, 0) + min(per_pass.values())
    return out


def main(job: dict) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from cells import build
    from spans import NoSpans, Spans

    cells = build(job["workload"], job["seed"], quick=job["quick"])
    if job["corrupt"]:
        cells[0].corrupt = True
    tally = Tally()
    off = NoSpans()
    cold = run_pass(cells, off, tally, 0)
    print(READY, flush=True)

    traced = Spans()
    plain, with_spans = [], []
    share = TRACED_PASS_SHARE if job["trace"] else 1.0
    deadline = perf_counter() + job["seconds"] * share
    pass_no = 0
    while True:
        pass_no += 1
        if job["trace"] and pass_no % 2:
            with_spans.append(run_pass(cells, traced, tally, pass_no, cold))
        else:
            plain.append(run_pass(cells, off, tally, pass_no, cold))
        enough = job["quick"] or perf_counter() >= deadline
        if enough and pass_no >= 2:
            break

    part = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "pass_ns": [sum(s[0] for s in p) for p in plain],
        "cells": [
            {
                "name": cell.name,
                "messages": cell.messages,
                "blocks": cell.blocks,
                "floor_ns": floor_ns,
                "events": sample[1],
                "sim_us": sample[2],
                "counters": sample[3],
            }
            for cell, floor_ns, sample in zip(cells, floors(plain), cold)
        ],
    }
    if job["trace"]:
        import ladder

        part.update(
            traced_passes=len(with_spans),
            traced_floor_ns=floors(with_spans),
            span_floor_ns=span_floors(traced),
            span_columns=Spans.COLUMNS,
            spans=traced.rows,
            ladder=ladder.run(quick=job["quick"]),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(part))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
