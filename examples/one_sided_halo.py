#!/usr/bin/env python3
"""One-sided halo exchange: MPI-2 RMA put with derived datatypes.

The same 2-D halo pattern as ``halo_exchange_2d.py``, but each rank
*puts* its boundary cells directly into the neighbours' halo regions —
no receives, no matching, no handshake.  The origin specifies the
*target* datatype (the neighbour's halo column is a vector into the
neighbour's window), so strided remote updates go as direct RDMA writes.
A fence closes each epoch.

This is the setting where the paper's datatype machinery originated:
Träff's datatype cache ([14], cited in Section 5.4.2) was built for
exactly this one-sided case.

The rank program is ``repro.workloads.patterns.one_sided_halo``; it
verifies every halo after the last epoch.

Run:  python examples/one_sided_halo.py
"""

from repro import Cluster
from repro.workloads.patterns import OS_ITERS, OS_LOCAL, OS_PX, OS_PY, PATTERNS


def main():
    pattern = PATTERNS["one_sided_halo"]
    print(f"{OS_PX}x{OS_PY} grid, {OS_LOCAL}x{OS_LOCAL} double tiles, "
          f"{OS_ITERS} one-sided halo epochs (put + fence)\n")
    result = Cluster(pattern.nranks).run(pattern.program)
    print(f"total {result.time_us:.1f} us, {result.time_us / OS_ITERS:.1f} us "
          "per epoch — all halos verified via direct RDMA puts into "
          "neighbour windows.")


if __name__ == "__main__":
    main()
