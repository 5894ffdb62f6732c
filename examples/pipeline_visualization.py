#!/usr/bin/env python3
"""Visualize the pack/wire/unpack pipeline (the paper's Figure 3) from a
real simulation trace.

One 512 KB vector message is sent under each scheme with interval tracing
on; the script renders a text Gantt chart of CPU copy and wire activity
and prints the measured overlap fractions.  You can *see* why BC-SPUP is
faster than Generic (the stages interleave) and why Multi-W beats both
(there are no copy rows at all).

Run:  python examples/pipeline_visualization.py
"""

from repro import types
from repro.bench.overlap import overlap_report
from repro.bench.runner import traced_oneway
from repro.bench.workloads import column_vector

COLS = 1024
WIDTH = 88  # characters across the time axis


def gantt(cluster, total_us):
    """Render traced intervals as rows of a text timeline."""
    rows = [
        ("rank0 pack ", "pack", 0, "#"),
        ("rank0 wire ", "wire", 0, "="),
        ("rank1 unpack", "unpack", 1, "#"),
    ]
    scale = WIDTH / total_us
    lines = []
    for label, cat, node, ch in rows:
        cells = [" "] * WIDTH
        for rec in cluster.tracer.iter_category(cat, node):
            lo = min(WIDTH - 1, int(rec.start * scale))
            hi = min(WIDTH, max(lo + 1, int(rec.end * scale)))
            for i in range(lo, hi):
                cells[i] = ch
        lines.append(f"  {label} |{''.join(cells)}|")
    return "\n".join(lines)


def main():
    w = column_vector(COLS)
    print(f"One {w.nbytes >> 10} KB vector message "
          f"({w.nblocks} blocks of {int(w.block_bytes)} B); "
          f"time axis spans each scheme's own transfer\n")
    for scheme in ("generic", "bc-spup", "rwg-up", "multi-w"):
        result = traced_oneway(scheme, w.datatype)
        print(f"{scheme}  ({result.time_us:.0f} us total)")
        print(gantt(result.cluster, result.time_us))
        rep = overlap_report(result)
        print(f"  overlap: pack {rep.pack_hidden_fraction:.0%} hidden, "
              f"unpack {rep.unpack_hidden_fraction:.0%} hidden\n")
    print("'#' = CPU copying (pack/unpack), '=' = HCA injecting on the wire.")
    print("Generic serializes the three stages; BC-SPUP interleaves them "
          "(Figure 3); RWG-UP drops the pack row; Multi-W drops both.")


if __name__ == "__main__":
    main()
