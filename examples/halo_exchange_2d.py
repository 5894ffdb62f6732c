#!/usr/bin/env python3
"""2-D halo exchange with derived datatypes — the paper's motivating
application pattern ("(de)composition of multi-dimensional data volumes",
finite-element codes).

A global field is block-decomposed over a Px x Py process grid.  Each
iteration, every rank exchanges one-cell-deep halos with its four
neighbours:

* north/south halos are **contiguous** rows;
* east/west halos are **noncontiguous** columns, described by a vector
  datatype — no manual packing anywhere.

The rank program is ``repro.workloads.patterns.halo_exchange_2d`` (the
one the checked-in workload trace is recorded from).  The example runs
it under each datatype scheme; the program itself verifies that the
halos carry the neighbours' data.

Run:  python examples/halo_exchange_2d.py
"""

from repro import Cluster
from repro.workloads.patterns import (
    HALO_ITERS,
    HALO_LOCAL,
    HALO_PX,
    HALO_PY,
    PATTERNS,
)


def main():
    pattern = PATTERNS["halo_exchange_2d"]
    print(f"{HALO_PX}x{HALO_PY} process grid, {HALO_LOCAL}x{HALO_LOCAL} "
          f"double tiles, {HALO_ITERS} halo-exchange iterations")
    print("East/west halos are vector datatypes "
          f"({HALO_LOCAL} blocks of 8 B, stride {8 * (HALO_LOCAL + 2)} B)\n")
    print(f"{'scheme':>10} {'total (us)':>12} {'per iter (us)':>14}")
    for scheme in ("generic", "bc-spup", "rwg-up", "multi-w", "adaptive"):
        result = Cluster(pattern.nranks, scheme=scheme).run(pattern.program)
        print(f"{scheme:>10} {result.time_us:12.1f} "
              f"{result.time_us / HALO_ITERS:14.1f}")
    print("\nAll halos verified on every rank.")


if __name__ == "__main__":
    main()
