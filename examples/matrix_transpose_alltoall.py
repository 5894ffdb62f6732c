#!/usr/bin/env python3
"""Distributed matrix transpose via MPI_Alltoall with derived datatypes —
the communication core of a parallel FFT (a workload the paper's
introduction names as naturally noncontiguous).

An N x N matrix is row-distributed over P ranks.  The transpose sends
block (i, j) of the row panel to rank j: the send chunks are
**noncontiguous column slabs**, described directly with a vector datatype
(resized so consecutive chunks are one slab width apart), so the whole
transpose is one Alltoall call — no user packing.  After the exchange,
each rank locally transposes the received blocks and checks them.

The rank program is ``repro.workloads.patterns.matrix_transpose_alltoall``.

Run:  python examples/matrix_transpose_alltoall.py
"""

from repro import Cluster
from repro.workloads.patterns import PATTERNS, TRANS_N, TRANS_P, TRANS_ROWS


def main():
    pattern = PATTERNS["matrix_transpose_alltoall"]
    print(f"Transposing a {TRANS_N}x{TRANS_N} float64 matrix over {TRANS_P} "
          f"ranks (row panels of {TRANS_ROWS}x{TRANS_N})")
    print(f"Send chunks are vector datatypes: {TRANS_ROWS} blocks of "
          f"{TRANS_N // TRANS_P * 8} B, stride {TRANS_N * 8} B\n")
    print(f"{'scheme':>10} {'alltoall (us)':>14}")
    for scheme in ("generic", "bc-spup", "rwg-up", "multi-w", "adaptive"):
        result = Cluster(pattern.nranks, scheme=scheme).run(pattern.program)
        print(f"{scheme:>10} {result.time_us:14.1f}")
    print("\nTranspose verified on every rank.")


if __name__ == "__main__":
    main()
